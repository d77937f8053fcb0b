package elmore

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"nontree/internal/geom"
	"nontree/internal/graph"
	"nontree/internal/mst"
	"nontree/internal/netlist"
	"nontree/internal/rc"
)

func randomTree(t *testing.T, seed int64, pins int) *graph.Topology {
	t.Helper()
	gen := netlist.NewGenerator(seed)
	n, err := gen.Generate(pins)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := mst.Prim(n.Pins)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func lump(t *testing.T, topo *graph.Topology) *rc.Lumped {
	t.Helper()
	l := new(rc.Lumped)
	if err := rc.Lump(l, topo, rc.Default(), nil); err != nil {
		t.Fatal(err)
	}
	return l
}

// factor returns the factored conductance matrix of topo's network l.
func factor(t *testing.T, topo *graph.Topology, l *rc.Lumped) *Conductance {
	t.Helper()
	c := new(Conductance)
	if err := c.Factor(topo, l); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestTwoPinNetMatchesHandComputation(t *testing.T) {
	// Source at origin, sink 1000 µm away.
	topo := graph.NewTopology([]geom.Point{{X: 0, Y: 0}, {X: 1000, Y: 0}})
	if err := topo.AddEdge(graph.Edge{U: 0, V: 1}); err != nil {
		t.Fatal(err)
	}
	p := rc.Default()
	l := lump(t, topo)

	wireC := p.WireCapacitance * 1000
	wireR := p.WireResistance * 1000
	totalC := wireC + 2*p.SinkCapacitance
	// Eq. (1): t(sink) = rd·C_total + r_e·(c_e/2 + C_sink-side)
	want := p.DriverResistance*totalC + wireR*(wireC/2+p.SinkCapacitance)

	for name, f := range map[string]func(*graph.Topology, *rc.Lumped) ([]float64, error){
		"tree":  TreeDelays,
		"graph": GraphDelays,
	} {
		delays, err := f(topo, l)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rel := math.Abs(delays[1]-want) / want; rel > 1e-12 {
			t.Errorf("%s: sink delay %.6g, want %.6g", name, delays[1], want)
		}
	}
}

func TestTreeAndGraphDelaysAgreeOnTrees(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		for _, pins := range []int{2, 3, 5, 10, 20} {
			topo := randomTree(t, seed*100+int64(pins), pins)
			l := lump(t, topo)
			td, err := TreeDelays(topo, l)
			if err != nil {
				t.Fatal(err)
			}
			gd, err := GraphDelays(topo, l)
			if err != nil {
				t.Fatal(err)
			}
			for n := range td {
				if rel := math.Abs(td[n]-gd[n]) / math.Max(td[n], 1e-30); rel > 1e-9 {
					t.Fatalf("seed %d pins %d node %d: tree %.8g vs graph %.8g",
						seed, pins, n, td[n], gd[n])
				}
			}
		}
	}
}

func TestTreeAndGraphAgreeProperty(t *testing.T) {
	// Property-based variant over arbitrary seeds.
	f := func(seed int64) bool {
		topo := randomTree(t, seed, 8)
		l := lump(t, topo)
		td, err1 := TreeDelays(topo, l)
		gd, err2 := GraphDelays(topo, l)
		if err1 != nil || err2 != nil {
			return false
		}
		for n := range td {
			if math.Abs(td[n]-gd[n]) > 1e-9*math.Max(td[n], 1e-30) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestAddingEdgeKeepsDelaysFinitePositive(t *testing.T) {
	topo := randomTree(t, 7, 10)
	// Add a shortcut edge from source to the geometrically farthest pin.
	far, worst := -1, -1.0
	for n := 1; n < topo.NumPins(); n++ {
		if d := geom.Dist(topo.Point(0), topo.Point(n)); d > worst {
			worst, far = d, n
		}
	}
	e := graph.Edge{U: 0, V: far}
	if !topo.HasEdge(e) {
		if err := topo.AddEdge(e); err != nil {
			t.Fatal(err)
		}
	}
	l := lump(t, topo)
	delays, err := GraphDelays(topo, l)
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n < topo.NumPins(); n++ {
		if delays[n] <= 0 || math.IsNaN(delays[n]) || math.IsInf(delays[n], 0) {
			t.Fatalf("node %d delay %v not finite positive", n, delays[n])
		}
	}
}

func TestShortcutEdgeReducesDelayOnPathologicalNet(t *testing.T) {
	// A U-shaped chain: the tree path from the source to the last sink
	// winds 15,000 µm, but the direct distance is only 3,000 µm. Adding
	// that short wire slashes source-sink resistance at a small
	// capacitance cost — the paper's Figure 1 phenomenon.
	pts := []geom.Point{
		{X: 0, Y: 0}, {X: 3000, Y: 0}, {X: 6000, Y: 0},
		{X: 6000, Y: 3000}, {X: 3000, Y: 3000}, {X: 0, Y: 3000},
	}
	topo := graph.NewTopology(pts)
	for i := 0; i < 5; i++ {
		if err := topo.AddEdge(graph.Edge{U: i, V: i + 1}); err != nil {
			t.Fatal(err)
		}
	}
	l := lump(t, topo)
	before, err := GraphDelays(topo, l)
	if err != nil {
		t.Fatal(err)
	}

	far := 5
	if err := topo.AddEdge(graph.Edge{U: 0, V: far}); err != nil {
		t.Fatal(err)
	}
	l2 := lump(t, topo)
	after, err := GraphDelays(topo, l2)
	if err != nil {
		t.Fatal(err)
	}
	if after[far] >= before[far] {
		t.Errorf("shortcut did not reduce far-sink delay: %.4g → %.4g", before[far], after[far])
	}
}

func TestDelaysScaleLinearlyWithDriverResistance(t *testing.T) {
	// Doubling rd adds rd·C_total to every node's delay.
	topo := randomTree(t, 11, 8)
	p := rc.Default()
	l1 := new(rc.Lumped)
	if err := rc.Lump(l1, topo, p, nil); err != nil {
		t.Fatal(err)
	}
	p2 := p
	p2.DriverResistance *= 2
	l2 := new(rc.Lumped)
	if err := rc.Lump(l2, topo, p2, nil); err != nil {
		t.Fatal(err)
	}
	d1, _ := GraphDelays(topo, l1)
	d2, _ := GraphDelays(topo, l2)
	extra := p.DriverResistance * l1.TotalCap()
	for n := range d1 {
		if math.Abs((d2[n]-d1[n])-extra) > 1e-9*d1[n] {
			t.Fatalf("node %d: delay shift %.6g, want %.6g", n, d2[n]-d1[n], extra)
		}
	}
}

func TestMaxAndArgMaxSinkDelay(t *testing.T) {
	delays := []float64{99, 3, 7, 5} // node 0 is the source and excluded
	if got := MaxSinkDelay(delays, 4); got != 7 {
		t.Errorf("MaxSinkDelay = %v, want 7", got)
	}
	n, d := ArgMaxSinkDelay(delays, 4)
	if n != 2 || d != 7 {
		t.Errorf("ArgMaxSinkDelay = (%d, %v), want (2, 7)", n, d)
	}
	// Steiner nodes beyond numPins are ignored.
	delays = append(delays, 1000)
	if got := MaxSinkDelay(delays, 4); got != 7 {
		t.Errorf("MaxSinkDelay with Steiner = %v, want 7", got)
	}
}

func TestWeightedSinkDelay(t *testing.T) {
	delays := []float64{0, 2, 4, 6}
	got, err := WeightedSinkDelay(delays, 4, []float64{1, 0, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 + 0 + 3.0; got != want {
		t.Errorf("weighted = %v, want %v", got, want)
	}
	// Nil weights → uniform.
	got, err = WeightedSinkDelay(delays, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != 12 {
		t.Errorf("uniform weighted = %v, want 12", got)
	}
	// Mismatched length is an error.
	if _, err := WeightedSinkDelay(delays, 4, []float64{1}); err == nil {
		t.Error("expected weight-length mismatch error")
	}
}

func TestDisconnectedTopologyRejected(t *testing.T) {
	topo := graph.NewTopology([]geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 2, Y: 0}})
	must(t, topo.AddEdge(graph.Edge{U: 0, V: 1}))
	l := lump(t, topo)
	if _, err := GraphDelays(topo, l); err == nil {
		t.Error("expected error for disconnected topology")
	}
}

func TestNonTreeRejectedByTreeDelays(t *testing.T) {
	topo := graph.NewTopology([]geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 1, Y: 1}})
	must(t, topo.AddEdge(graph.Edge{U: 0, V: 1}))
	must(t, topo.AddEdge(graph.Edge{U: 1, V: 2}))
	must(t, topo.AddEdge(graph.Edge{U: 0, V: 2}))
	l := lump(t, topo)
	if _, err := TreeDelays(topo, l); err != ErrNotTree {
		t.Errorf("got %v, want ErrNotTree", err)
	}
}

func TestTransferResistanceSymmetry(t *testing.T) {
	topo := randomTree(t, 3, 6)
	// Add one cycle edge.
	for _, e := range topo.AbsentEdges() {
		if err := topo.AddEdge(e); err == nil {
			break
		}
	}
	l := lump(t, topo)
	c := factor(t, topo, l)
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < 10; k++ {
		i := rng.Intn(topo.NumNodes())
		j := rng.Intn(topo.NumNodes())
		rij, err1 := c.TransferResistance(i, j)
		rji, err2 := c.TransferResistance(j, i)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if math.Abs(rij-rji) > 1e-9*math.Max(math.Abs(rij), 1e-30) {
			t.Fatalf("R[%d,%d]=%.8g but R[%d,%d]=%.8g (must be symmetric)", i, j, rij, j, i, rji)
		}
	}
}

func TestTransferResistanceOfSourceIsDriver(t *testing.T) {
	topo := randomTree(t, 5, 5)
	l := lump(t, topo)
	c := factor(t, topo, l)
	// Current injected anywhere must see exactly rd at the source node
	// (all of it returns through the driver).
	for j := 0; j < topo.NumNodes(); j++ {
		r0j, err := c.TransferResistance(0, j)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(r0j-l.DriverResistance) > 1e-9*l.DriverResistance {
			t.Fatalf("R[0,%d] = %.6g, want driver resistance %g", j, r0j, l.DriverResistance)
		}
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
