package elmore

import (
	"math"
	"testing"

	"nontree/internal/mst"
	"nontree/internal/netlist"
	"nontree/internal/rc"
	"nontree/internal/spice"
)

func TestBoundsBracketSimulatorOnRandomNets(t *testing.T) {
	// The contract: for every sink of every net, the simulator-measured
	// 50% delay lies inside [Lower, Upper].
	p := rc.Default()
	for seed := int64(0); seed < 10; seed++ {
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
		bounds, err := Bounds(topo, l, 0.5)
		if err != nil {
			t.Fatal(err)
		}

		cm, err := rc.BuildCircuit(topo, p, rc.BuildOpts{})
		if err != nil {
			t.Fatal(err)
		}
		measured, err := spice.MeasureDelays(cm.Circuit, cm.SinkNodes, spice.DefaultMeasureOpts())
		if err != nil {
			t.Fatal(err)
		}
		for i, d := range measured {
			node := i + 1
			if !bounds.Contains(node, d) {
				t.Errorf("seed %d sink %d: measured %.4g outside [%.4g, %.4g]",
					seed, node, d, bounds.Lower[node], bounds.Upper[node])
			}
		}
	}
}

func TestBoundsBracketOnGraphs(t *testing.T) {
	// Bounds must also hold on non-tree routing graphs.
	p := rc.Default()
	gen := netlist.NewGenerator(42)
	net, err := gen.Generate(8)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := mst.Prim(net.Pins)
	if err != nil {
		t.Fatal(err)
	}
	added := 0
	for _, e := range topo.AbsentEdges() {
		if err := topo.AddEdge(e); err == nil {
			added++
			if added == 2 {
				break
			}
		}
	}
	l := new(rc.Lumped)
	if err := rc.Lump(l, topo, p, nil); err != nil {
		t.Fatal(err)
	}
	bounds, err := Bounds(topo, l, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := rc.BuildCircuit(topo, p, rc.BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	measured, err := spice.MeasureDelays(cm.Circuit, cm.SinkNodes, spice.DefaultMeasureOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range measured {
		if !bounds.Contains(i+1, d) {
			t.Errorf("sink %d: measured %.4g outside [%.4g, %.4g]",
				i+1, d, bounds.Lower[i+1], bounds.Upper[i+1])
		}
	}
}

func TestBoundsOrdering(t *testing.T) {
	topo := randomTree(t, 5, 12)
	l := lump(t, topo)
	for _, x := range []float64{0.1, 0.5, 0.9} {
		b, err := Bounds(topo, l, x)
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n < topo.NumNodes(); n++ {
			if b.Lower[n] > b.Upper[n] {
				t.Fatalf("x=%v node %d: lower %.4g above upper %.4g", x, n, b.Lower[n], b.Upper[n])
			}
			if b.Lower[n] < 0 {
				t.Fatalf("negative lower bound")
			}
		}
	}
}

func TestBoundsTightenWithThreshold(t *testing.T) {
	// The Markov upper bound grows as x→1.
	topo := randomTree(t, 7, 8)
	l := lump(t, topo)
	b10, err := Bounds(topo, l, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	b90, err := Bounds(topo, l, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n < topo.NumPins(); n++ {
		if b90.Upper[n] <= b10.Upper[n] {
			t.Fatalf("upper bound must grow with x: node %d %.4g vs %.4g",
				n, b10.Upper[n], b90.Upper[n])
		}
	}
}

func TestBoundsValidation(t *testing.T) {
	topo := randomTree(t, 1, 5)
	l := lump(t, topo)
	for _, x := range []float64{0, 1, -0.5, 1.5} {
		if _, err := Bounds(topo, l, x); err == nil {
			t.Errorf("x=%v must be rejected", x)
		}
	}
}

func TestUpperBoundNeverBelowElmoreLn2For50(t *testing.T) {
	// At x=0.5, Upper = 2·t_ED which exceeds the single-pole truth
	// ln2·t_ED — sanity that the bound has the right scale.
	topo := randomTree(t, 9, 10)
	l := lump(t, topo)
	b, err := Bounds(topo, l, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	ed, err := GraphDelays(topo, l)
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n < topo.NumPins(); n++ {
		if b.Upper[n] < math.Ln2*ed[n] {
			t.Fatalf("node %d: upper bound %.4g below ln2·Elmore %.4g", n, b.Upper[n], math.Ln2*ed[n])
		}
		if math.Abs(b.Upper[n]-2*ed[n]) > 1e-12*ed[n] {
			t.Fatalf("node %d: 50%% upper bound must equal 2·t_ED", n)
		}
	}
}
