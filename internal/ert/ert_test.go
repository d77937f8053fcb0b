package ert

import (
	"math"
	"testing"
	"testing/quick"

	"nontree/internal/elmore"
	"nontree/internal/geom"
	"nontree/internal/graph"
	"nontree/internal/mst"
	"nontree/internal/netlist"
	"nontree/internal/rc"
)

func maxElmore(t *testing.T, topo *graph.Topology, p rc.Params) float64 {
	t.Helper()
	l := new(rc.Lumped)
	if err := rc.Lump(l, topo, p, nil); err != nil {
		t.Fatal(err)
	}
	d, err := elmore.GraphDelays(topo, l)
	if err != nil {
		t.Fatal(err)
	}
	return elmore.MaxSinkDelay(d, topo.NumPins())
}

func TestBuildProducesSpanningTree(t *testing.T) {
	gen := netlist.NewGenerator(1)
	for _, pins := range []int{2, 5, 10, 20} {
		net, err := gen.Generate(pins)
		if err != nil {
			t.Fatal(err)
		}
		topo, err := Build(net.Pins, rc.Default())
		if err != nil {
			t.Fatal(err)
		}
		if !topo.IsTree() {
			t.Fatalf("%d pins: ERT is not a tree", pins)
		}
		if topo.NumEdges() != pins-1 {
			t.Fatalf("%d pins: %d edges", pins, topo.NumEdges())
		}
	}
}

func TestERTNeverWorseElmoreThanMST(t *testing.T) {
	// ERT directly minimizes max Elmore delay greedily; it must not lose
	// to the MST by more than numerical noise, and usually wins.
	p := rc.Default()
	wins := 0
	const trials = 15
	for seed := int64(0); seed < trials; seed++ {
		gen := netlist.NewGenerator(seed)
		net, err := gen.Generate(12)
		if err != nil {
			t.Fatal(err)
		}
		mstTopo, err := mst.Prim(net.Pins)
		if err != nil {
			t.Fatal(err)
		}
		ertTopo, err := Build(net.Pins, p)
		if err != nil {
			t.Fatal(err)
		}
		me, mm := maxElmore(t, ertTopo, p), maxElmore(t, mstTopo, p)
		if me < mm {
			wins++
		}
		if me > mm*1.25 {
			t.Errorf("seed %d: ERT Elmore %.3g far worse than MST %.3g", seed, me, mm)
		}
	}
	if wins < trials*2/3 {
		t.Errorf("ERT beat MST only %d/%d times; Boese et al. report near-universal wins", wins, trials)
	}
}

func TestERTCostsMoreWireThanMST(t *testing.T) {
	// The delay-for-wire tradeoff: ERT cost ≥ MST cost (MST is optimal
	// wirelength), typically 20-30% more (paper Table 6 context).
	p := rc.Default()
	for seed := int64(20); seed < 30; seed++ {
		gen := netlist.NewGenerator(seed)
		net, err := gen.Generate(15)
		if err != nil {
			t.Fatal(err)
		}
		ertTopo, err := Build(net.Pins, p)
		if err != nil {
			t.Fatal(err)
		}
		if ertTopo.Cost() < mst.Cost(net.Pins)-1e-9 {
			t.Fatalf("seed %d: ERT cost %.0f below MST %.0f (impossible)",
				seed, ertTopo.Cost(), mst.Cost(net.Pins))
		}
	}
}

func TestTwoPinERT(t *testing.T) {
	topo, err := Build([]geom.Point{{X: 0, Y: 0}, {X: 100, Y: 100}}, rc.Default())
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumEdges() != 1 || !topo.HasEdge(graph.Edge{U: 0, V: 1}) {
		t.Error("two-pin ERT must be the single edge")
	}
}

func TestErrors(t *testing.T) {
	if _, err := Build([]geom.Point{{X: 0, Y: 0}}, rc.Default()); err != ErrTooFewPins {
		t.Errorf("one pin: %v", err)
	}
	bad := rc.Default()
	bad.DriverResistance = -1
	if _, err := Build([]geom.Point{{X: 0, Y: 0}, {X: 1, Y: 1}}, bad); err == nil {
		t.Error("invalid params must be rejected")
	}
	if _, err := BuildSteiner([]geom.Point{{X: 0, Y: 0}}, rc.Default()); err != ErrTooFewPins {
		t.Errorf("SERT one pin: %v", err)
	}
}

func TestStarNetERTPrefersDirectEdges(t *testing.T) {
	// Source in the center: the delay-optimal tree is the star, which ERT
	// must find (every sink attaches straight to the source).
	pins := []geom.Point{
		{X: 500, Y: 500},
		{X: 0, Y: 500}, {X: 1000, Y: 500}, {X: 500, Y: 0}, {X: 500, Y: 1000},
	}
	topo, err := Build(pins, rc.Default())
	if err != nil {
		t.Fatal(err)
	}
	for sink := 1; sink < 5; sink++ {
		if !topo.HasEdge(graph.Edge{U: 0, V: sink}) {
			t.Errorf("sink %d not attached to source; edges %v", sink, topo.Edges())
		}
	}
}

func TestDeterministicProperty(t *testing.T) {
	f := func(seed int64) bool {
		gen1 := netlist.NewGenerator(seed)
		net1, err := gen1.Generate(9)
		if err != nil {
			return false
		}
		a, err1 := Build(net1.Pins, rc.Default())
		b, err2 := Build(net1.Pins, rc.Default())
		if err1 != nil || err2 != nil {
			return false
		}
		ea, eb := a.Edges(), b.Edges()
		if len(ea) != len(eb) {
			return false
		}
		for i := range ea {
			if ea[i] != eb[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestSERTSpansAndConnects(t *testing.T) {
	gen := netlist.NewGenerator(5)
	for _, pins := range []int{3, 6, 10} {
		net, err := gen.Generate(pins)
		if err != nil {
			t.Fatal(err)
		}
		topo, err := BuildSteiner(net.Pins, rc.Default())
		if err != nil {
			t.Fatal(err)
		}
		if !topo.Connected() {
			t.Fatalf("%d pins: SERT not connected", pins)
		}
		if !topo.IsTree() {
			t.Fatalf("%d pins: SERT not a tree", pins)
		}
		if topo.NumPins() != pins {
			t.Fatalf("pin count %d", topo.NumPins())
		}
	}
}

func TestSERTNoWorseElmoreThanERT(t *testing.T) {
	// Steiner junctions strictly enlarge the solution space; greedy SERT
	// should usually match or beat greedy ERT on Elmore delay.
	p := rc.Default()
	better, worse := 0, 0
	for seed := int64(0); seed < 12; seed++ {
		gen := netlist.NewGenerator(seed)
		net, err := gen.Generate(10)
		if err != nil {
			t.Fatal(err)
		}
		ertTopo, err := Build(net.Pins, p)
		if err != nil {
			t.Fatal(err)
		}
		sertTopo, err := BuildSteiner(net.Pins, p)
		if err != nil {
			t.Fatal(err)
		}
		de, ds := maxElmore(t, ertTopo, p), maxElmore(t, sertTopo, p)
		if ds <= de*(1+1e-9) {
			better++
		} else if ds > de*1.05 {
			worse++
		}
	}
	if worse > 2 {
		t.Errorf("SERT materially worse than ERT on %d/12 nets", worse)
	}
	if better < 8 {
		t.Errorf("SERT matched/beat ERT on only %d/12 nets", better)
	}
}

func TestSERTSteinerPointsAreJunctions(t *testing.T) {
	gen := netlist.NewGenerator(8)
	net, err := gen.Generate(12)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := BuildSteiner(net.Pins, rc.Default())
	if err != nil {
		t.Fatal(err)
	}
	for n := topo.NumPins(); n < topo.NumNodes(); n++ {
		if topo.Degree(n) < 3 {
			t.Errorf("SERT Steiner node %d has degree %d (not a junction)", n, topo.Degree(n))
		}
	}
}

func TestERTElmoreMatchesPackageElmore(t *testing.T) {
	// The incremental Elmore evaluator inside ERT must agree with the
	// reference implementation in internal/elmore.
	p := rc.Default()
	gen := netlist.NewGenerator(31)
	net, err := gen.Generate(10)
	if err != nil {
		t.Fatal(err)
	}
	st := newTreeState(net.Pins, p)
	// Build a chain 0-1-2-...-9 manually.
	for i := 1; i < 10; i++ {
		st.attach(i, i-1)
	}
	got := st.maxSinkDelay()

	topo := graph.NewTopology(net.Pins)
	for i := 1; i < 10; i++ {
		if err := topo.AddEdge(graph.Edge{U: i - 1, V: i}); err != nil {
			t.Fatal(err)
		}
	}
	want := maxElmore(t, topo, p)
	if math.Abs(got-want) > 1e-12*want {
		t.Errorf("internal evaluator %.6g vs reference %.6g", got, want)
	}
}
