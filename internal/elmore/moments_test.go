package elmore

import (
	"math"
	"testing"

	"nontree/internal/mst"
	"nontree/internal/netlist"
	"nontree/internal/rc"
	"nontree/internal/spice"
)

func TestFirstMomentIsNegativeElmore(t *testing.T) {
	topo := randomTree(t, 3, 10)
	l := lump(t, topo)
	cond := factor(t, topo, l)
	moments, err := cond.Moments(l, 1)
	if err != nil {
		t.Fatal(err)
	}
	elm, err := GraphDelays(topo, l)
	if err != nil {
		t.Fatal(err)
	}
	for n := range elm {
		if math.Abs(moments[0][n]+elm[n]) > 1e-18+1e-9*elm[n] {
			t.Fatalf("node %d: m1 = %.6g, want %.6g", n, moments[0][n], -elm[n])
		}
	}
}

func TestTwoPoleMatchesSinglePoleOnSingleRC(t *testing.T) {
	// A net whose reduced network is (nearly) single-pole: two pins, tiny
	// sink caps relative to wire. The two-pole 50% estimate must approach
	// ln2·τ.
	p := rc.Default()
	gen := netlist.NewGenerator(2)
	net, err := gen.Generate(2)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := mst.Prim(net.Pins)
	if err != nil {
		t.Fatal(err)
	}
	l := new(rc.Lumped)
	if err := rc.Lump(l, topo, p, nil); err != nil {
		t.Fatal(err)
	}
	tp, err := TwoPoleDelays(topo, l)
	if err != nil {
		t.Fatal(err)
	}
	elm, err := GraphDelays(topo, l)
	if err != nil {
		t.Fatal(err)
	}
	// For a lumped 2-node RC the response is genuinely 2-pole; the 50%
	// delay must lie between 0.3·Elmore and 1.0·Elmore.
	if tp[1] < 0.3*elm[1] || tp[1] > elm[1] {
		t.Errorf("two-pole %.4g outside the plausible band of Elmore %.4g", tp[1], elm[1])
	}
}

func TestTwoPoleBeatsLn2ElmoreAgainstSimulator(t *testing.T) {
	// The whole point of the second moment: across random nets, the
	// two-pole estimate of the critical sink's delay must on average be
	// closer to the transient simulator than ln2·Elmore is.
	p := rc.Default()
	var errTwoPole, errLn2 float64
	const trials = 8
	for seed := int64(0); seed < trials; seed++ {
		gen := netlist.NewGenerator(seed)
		net, err := gen.Generate(10)
		if err != nil {
			t.Fatal(err)
		}
		topo, err := mst.Prim(net.Pins)
		if err != nil {
			t.Fatal(err)
		}
		l := new(rc.Lumped)
		if err := rc.Lump(l, topo, p, nil); err != nil {
			t.Fatal(err)
		}

		cm, err := rc.BuildCircuit(topo, p, rc.BuildOpts{})
		if err != nil {
			t.Fatal(err)
		}
		ref, err := spice.MeasureDelays(cm.Circuit, cm.SinkNodes, spice.DefaultMeasureOpts())
		if err != nil {
			t.Fatal(err)
		}
		refMax := spice.MaxDelay(ref)

		tp, err := EstimateDelays(topo, l, ModelTwoPole)
		if err != nil {
			t.Fatal(err)
		}
		ln2, err := EstimateDelays(topo, l, ModelElmoreLn2)
		if err != nil {
			t.Fatal(err)
		}
		errTwoPole += math.Abs(MaxSinkDelay(tp, topo.NumPins())-refMax) / refMax
		errLn2 += math.Abs(MaxSinkDelay(ln2, topo.NumPins())-refMax) / refMax
	}
	t.Logf("mean critical-sink error vs simulator: two-pole %.2f%%, ln2·Elmore %.2f%%",
		100*errTwoPole/trials, 100*errLn2/trials)
	if errTwoPole >= errLn2 {
		t.Errorf("two-pole (%.3f) not better than ln2·Elmore (%.3f)", errTwoPole, errLn2)
	}
}

func TestTwoPoleWorksOnGraphs(t *testing.T) {
	topo := randomTree(t, 5, 10)
	// Close a cycle.
	for _, e := range topo.AbsentEdges() {
		if err := topo.AddEdge(e); err == nil {
			break
		}
	}
	l := lump(t, topo)
	tp, err := TwoPoleDelays(topo, l)
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n < topo.NumPins(); n++ {
		if tp[n] <= 0 || math.IsNaN(tp[n]) {
			t.Errorf("node %d two-pole delay %v", n, tp[n])
		}
	}
}

func TestMomentOrderValidation(t *testing.T) {
	topo := randomTree(t, 1, 5)
	l := lump(t, topo)
	cond := factor(t, topo, l)
	if _, err := cond.Moments(l, 0); err == nil {
		t.Error("order 0 must be rejected")
	}
	m, err := cond.Moments(l, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 4 {
		t.Fatalf("got %d moment vectors", len(m))
	}
	// Moments of an RC network alternate in sign: m1 < 0, m2 > 0, m3 < 0...
	for n := 0; n < topo.NumNodes(); n++ {
		for k := 0; k < 4; k++ {
			want := 1.0
			if k%2 == 0 {
				want = -1
			}
			if m[k][n]*want < 0 {
				t.Errorf("node %d: m%d = %g has wrong sign", n, k+1, m[k][n])
			}
		}
	}
}

func TestDelayModelStrings(t *testing.T) {
	if ModelElmoreLn2.String() == "" || ModelTwoPole.String() == "" || ModelElmoreRaw.String() == "" {
		t.Error("model names empty")
	}
	if _, err := EstimateDelays(randomTree(t, 1, 4), lump(t, randomTree(t, 1, 4)), DelayModel(99)); err == nil {
		t.Error("unknown model must error")
	}
}

func TestTwoPoleDegenerateFallback(t *testing.T) {
	if d := twoPoleFiftyPercent(-1e-9, 0); d <= 0 {
		t.Error("fallback must be positive")
	}
	if d := twoPoleFiftyPercent(0, 0); d != 0 {
		t.Error("zero Elmore must give zero delay")
	}
	// a2 = m1²−m2 ≤ 0 → fallback = ln2·|m1|.
	if d := twoPoleFiftyPercent(-1e-9, 2e-18); math.Abs(d-math.Ln2*1e-9) > 1e-15 {
		t.Errorf("fallback = %g", d)
	}
}
