package embed

import (
	"math"
	"testing"

	"nontree/internal/core"
	"nontree/internal/geom"
	"nontree/internal/graph"
	"nontree/internal/mst"
	"nontree/internal/netlist"
	"nontree/internal/rc"
)

func mustTopo(t *testing.T, pts []geom.Point, edges ...graph.Edge) *graph.Topology {
	t.Helper()
	topo := graph.NewTopology(pts)
	for _, e := range edges {
		if err := topo.AddEdge(e); err != nil {
			t.Fatal(err)
		}
	}
	return topo
}

// wireLength is an embedding's total segment length, which must equal the
// topology's Manhattan cost.
func wireLength(e *Embedding) float64 {
	var sum float64
	for _, segs := range e.Segments {
		for _, s := range segs {
			sum += s.Length()
		}
	}
	return sum
}

func TestStraightEdgesNoBends(t *testing.T) {
	topo := mustTopo(t, []geom.Point{{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 10, Y: 10}},
		graph.Edge{U: 0, V: 1}, graph.Edge{U: 1, V: 2})
	e := Embed(topo, HorizontalFirst)
	if e.Bends != 0 {
		t.Errorf("axis-aligned edges must have no bends, got %d", e.Bends)
	}
	if e.Crossings() != 0 {
		t.Errorf("L-path cannot cross itself")
	}
	if math.Abs(wireLength(e)-topo.Cost()) > 1e-9 {
		t.Errorf("embedding changed length: %v vs %v", wireLength(e), topo.Cost())
	}
}

func TestDiagonalEdgeGetsOneBend(t *testing.T) {
	topo := mustTopo(t, []geom.Point{{X: 0, Y: 0}, {X: 10, Y: 10}}, graph.Edge{U: 0, V: 1})
	for _, p := range []Policy{HorizontalFirst, VerticalFirst, Greedy} {
		e := Embed(topo, p)
		if e.Bends != 1 {
			t.Errorf("%v: bends = %d", p, e.Bends)
		}
		if len(e.Segments[graph.Edge{U: 0, V: 1}]) != 2 {
			t.Errorf("%v: segment count wrong", p)
		}
		if math.Abs(wireLength(e)-20) > 1e-9 {
			t.Errorf("%v: length %v", p, wireLength(e))
		}
	}
}

func TestPlusCrossing(t *testing.T) {
	// A '+': horizontal edge 0-1 crosses vertical edge 2-3 at the center.
	topo := mustTopo(t, []geom.Point{
		{X: -10, Y: 0}, {X: 10, Y: 0}, {X: 0, Y: -10}, {X: 0, Y: 10},
	}, graph.Edge{U: 0, V: 1}, graph.Edge{U: 2, V: 3})
	e := Embed(topo, HorizontalFirst)
	if got := e.Crossings(); got != 1 {
		t.Errorf("plus must have exactly 1 crossing, got %d", got)
	}
}

func TestTouchingAtEndpointNotCounted(t *testing.T) {
	// A 'T': vertical edge ends exactly on the horizontal edge's interior.
	topo := mustTopo(t, []geom.Point{
		{X: -10, Y: 0}, {X: 10, Y: 0}, {X: 0, Y: 10}, {X: 0, Y: 0.0001},
	}, graph.Edge{U: 0, V: 1}, graph.Edge{U: 2, V: 3})
	// Edge 2-3 stops just above the horizontal line: no crossing.
	if got := Embed(topo, HorizontalFirst).Crossings(); got != 0 {
		t.Errorf("non-intersecting T: %d crossings", got)
	}
}

func TestAdjacentEdgesNeverConflict(t *testing.T) {
	// A star: all edges share the center node; overlaps at the shared node
	// must not count.
	topo := mustTopo(t, []geom.Point{
		{X: 0, Y: 0}, {X: 10, Y: 0}, {X: -10, Y: 0}, {X: 0, Y: 10}, {X: 0, Y: -10},
	}, graph.Edge{U: 0, V: 1}, graph.Edge{U: 0, V: 2}, graph.Edge{U: 0, V: 3}, graph.Edge{U: 0, V: 4})
	if got := Embed(topo, HorizontalFirst).Crossings(); got != 0 {
		t.Errorf("star: %d crossings", got)
	}
}

func TestCollinearOverlapCounted(t *testing.T) {
	// Two disjoint horizontal edges sharing y with overlapping x ranges.
	topo := mustTopo(t, []geom.Point{
		{X: 0, Y: 0}, {X: 20, Y: 0}, {X: 10, Y: 0.0}, {X: 30, Y: 0},
	})
	if err := topo.AddEdge(graph.Edge{U: 0, V: 1}); err != nil {
		t.Fatal(err)
	}
	if err := topo.AddEdge(graph.Edge{U: 2, V: 3}); err != nil {
		t.Fatal(err)
	}
	if got := Embed(topo, HorizontalFirst).Crossings(); got != 1 {
		t.Errorf("overlapping collinear wires: %d conflicts, want 1", got)
	}
}

func TestGreedyNeverWorseThanFixedPolicies(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		gen := netlist.NewGenerator(seed)
		net, err := gen.Generate(12)
		if err != nil {
			t.Fatal(err)
		}
		topo, err := mst.Prim(net.Pins)
		if err != nil {
			t.Fatal(err)
		}
		// Add two shortcut edges to force crossings.
		added := 0
		for _, e := range topo.AbsentEdges() {
			if err := topo.AddEdge(e); err == nil {
				added++
				if added == 2 {
					break
				}
			}
		}
		counts := map[Policy]int{}
		for _, p := range []Policy{HorizontalFirst, VerticalFirst, Greedy} {
			counts[p] = Embed(topo, p).Crossings()
		}
		minFixed := counts[HorizontalFirst]
		if counts[VerticalFirst] < minFixed {
			minFixed = counts[VerticalFirst]
		}
		if counts[Greedy] > minFixed {
			t.Errorf("seed %d: greedy %d worse than best fixed %d", seed, counts[Greedy], minFixed)
		}
	}
}

func TestEmbeddingLengthEqualsTopologyCost(t *testing.T) {
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
		for _, p := range []Policy{HorizontalFirst, VerticalFirst, Greedy} {
			e := Embed(topo, p)
			if math.Abs(wireLength(e)-topo.Cost()) > 1e-6 {
				t.Fatalf("seed %d %v: length %v vs cost %v", seed, p, wireLength(e), topo.Cost())
			}
		}
	}
}

func TestPolicyStrings(t *testing.T) {
	for _, p := range []Policy{HorizontalFirst, VerticalFirst, Greedy} {
		if p.String() == "unknown" || p.String() == "" {
			t.Errorf("policy %d unnamed", int(p))
		}
	}
	if Policy(42).String() != "unknown" {
		t.Error("unknown policy must say so")
	}
}

func TestCrossingsDeterministic(t *testing.T) {
	gen := netlist.NewGenerator(3)
	net, err := gen.Generate(15)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := mst.Prim(net.Pins)
	if err != nil {
		t.Fatal(err)
	}
	first := Embed(topo, Greedy).Crossings()
	for i := 0; i < 5; i++ {
		if got := Embed(topo, Greedy).Crossings(); got != first {
			t.Fatalf("crossings not deterministic: %d vs %d", got, first)
		}
	}
}

func TestPlanarFilterBasics(t *testing.T) {
	// A '+': the crossing edge must be vetoed, a harmless edge accepted.
	topo := mustTopo(t, []geom.Point{
		{X: -10, Y: 0}, {X: 10, Y: 0}, {X: 0, Y: -10}, {X: 0, Y: 10},
	}, graph.Edge{U: 0, V: 1})
	if !PlanarFilter(topo, graph.Edge{U: 0, V: 2}) {
		t.Error("corner edge 0-2 can route as an L avoiding 0-1; must be accepted")
	}
	if PlanarFilter(topo, graph.Edge{U: 2, V: 3}) {
		t.Error("edge 2-3 must cross 0-1 in either orientation; must be vetoed")
	}
}

func TestPlanarFilterKeepsLDRGResultsNearPlanar(t *testing.T) {
	// Constrained LDRG should end with far fewer crossings than the
	// unconstrained runs on the same nets (usually zero; the filter is a
	// heuristic, so tiny counts can slip through via embedding shifts).
	free, constrained := 0, 0
	for seed := int64(0); seed < 6; seed++ {
		gen := netlist.NewGenerator(seed)
		net, err := gen.Generate(12)
		if err != nil {
			t.Fatal(err)
		}
		topo, err := mst.Prim(net.Pins)
		if err != nil {
			t.Fatal(err)
		}
		oracle := &core.ElmoreOracle{Params: rc.Default()}
		resFree, err := core.LDRG(topo, core.Options{Oracle: oracle})
		if err != nil {
			t.Fatal(err)
		}
		resPlanar, err := core.LDRG(topo, core.Options{Oracle: oracle, CandidateFilter: PlanarFilter})
		if err != nil {
			t.Fatal(err)
		}
		free += Embed(resFree.Topology, Greedy).Crossings()
		constrained += Embed(resPlanar.Topology, Greedy).Crossings()
		if resPlanar.FinalObjective > resPlanar.InitialObjective {
			t.Errorf("seed %d: constrained LDRG worsened delay", seed)
		}
	}
	if constrained > free {
		t.Errorf("planar filter produced MORE crossings: %d vs %d", constrained, free)
	}
	t.Logf("crossings across 6 nets: unconstrained %d, planar-filtered %d", free, constrained)
}
