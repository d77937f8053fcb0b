package graph

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"nontree/internal/geom"
)

func square() []geom.Point {
	return []geom.Point{
		{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 10, Y: 10}, {X: 0, Y: 10},
	}
}

func mustAdd(t *testing.T, topo *Topology, edges ...Edge) {
	t.Helper()
	for _, e := range edges {
		if err := topo.AddEdge(e); err != nil {
			t.Fatalf("AddEdge(%v): %v", e, err)
		}
	}
}

func TestEdgeCanonAndOther(t *testing.T) {
	e := Edge{U: 5, V: 2}.Canon()
	if e.U != 2 || e.V != 5 {
		t.Errorf("Canon = %v", e)
	}
	if e.Other(2) != 5 || e.Other(5) != 2 {
		t.Error("Other endpoints wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("Other with non-endpoint must panic")
		}
	}()
	e.Other(99)
}

// TestEdgeCompare pins the canonical edge order: U first, then V.
func TestEdgeCompare(t *testing.T) {
	edges := []Edge{{2, 3}, {0, 4}, {2, 1}, {0, 1}, {2, 3}}
	slices.SortFunc(edges, Edge.Compare)
	want := []Edge{{0, 1}, {0, 4}, {2, 1}, {2, 3}, {2, 3}}
	if !slices.Equal(edges, want) {
		t.Errorf("sorted = %v, want %v", edges, want)
	}
	if c := (Edge{1, 2}).Compare(Edge{1, 2}); c != 0 {
		t.Errorf("Compare of equal edges = %d, want 0", c)
	}
}

func TestAddRemoveEdges(t *testing.T) {
	topo := NewTopology(square())
	mustAdd(t, topo, Edge{U: 0, V: 1}, Edge{U: 1, V: 2})

	if !topo.HasEdge(Edge{U: 1, V: 0}) {
		t.Error("HasEdge must be orientation-independent")
	}
	if topo.NumEdges() != 2 {
		t.Errorf("NumEdges = %d", topo.NumEdges())
	}
	if topo.Degree(1) != 2 || topo.Degree(3) != 0 {
		t.Errorf("degrees: %d %d", topo.Degree(1), topo.Degree(3))
	}
	if err := topo.RemoveEdge(Edge{U: 2, V: 1}); err != nil {
		t.Fatal(err)
	}
	if topo.HasEdge(Edge{U: 1, V: 2}) || topo.NumEdges() != 1 {
		t.Error("RemoveEdge failed")
	}
}

func TestAddEdgeErrors(t *testing.T) {
	topo := NewTopology(square())
	mustAdd(t, topo, Edge{U: 0, V: 1})
	cases := []struct {
		e    Edge
		want error
	}{
		{Edge{U: 2, V: 2}, ErrSelfLoop},
		{Edge{U: 0, V: 9}, ErrNodeRange},
		{Edge{U: -1, V: 0}, ErrNodeRange},
		{Edge{U: 1, V: 0}, ErrDupEdge},
	}
	for _, c := range cases {
		if err := topo.AddEdge(c.e); !errors.Is(err, c.want) {
			t.Errorf("AddEdge(%v) = %v, want %v", c.e, err, c.want)
		}
	}
	if err := topo.RemoveEdge(Edge{U: 2, V: 3}); !errors.Is(err, ErrMissingEdge) {
		t.Errorf("RemoveEdge missing: %v", err)
	}
}

func TestZeroLengthEdgeRejected(t *testing.T) {
	pts := []geom.Point{{X: 0, Y: 0}, {X: 0, Y: 0}, {X: 1, Y: 1}}
	topo := NewTopology(pts)
	if err := topo.AddEdge(Edge{U: 0, V: 1}); !errors.Is(err, ErrZeroLength) {
		t.Errorf("zero-length edge: %v", err)
	}
}

func TestCostAndEdgeLength(t *testing.T) {
	topo := NewTopology(square())
	mustAdd(t, topo, Edge{U: 0, V: 1}, Edge{U: 1, V: 2}, Edge{U: 0, V: 2})
	if got := topo.EdgeLength(Edge{U: 0, V: 2}); got != 20 {
		t.Errorf("EdgeLength diagonal = %v", got)
	}
	if got := topo.Cost(); got != 40 {
		t.Errorf("Cost = %v, want 40", got)
	}
}

func TestConnectivityAndTreePredicates(t *testing.T) {
	topo := NewTopology(square())
	if topo.Connected() {
		t.Error("edgeless 4-pin topology is not connected")
	}
	mustAdd(t, topo, Edge{U: 0, V: 1}, Edge{U: 1, V: 2}, Edge{U: 2, V: 3})
	if !topo.Connected() || !topo.IsTree() || topo.HasCycle() {
		t.Error("path graph must be a connected acyclic tree")
	}
	mustAdd(t, topo, Edge{U: 3, V: 0})
	if !topo.Connected() || topo.IsTree() || !topo.HasCycle() {
		t.Error("cycle graph must be connected, cyclic, not a tree")
	}
}

func TestIsolatedSteinerIgnoredByConnectivity(t *testing.T) {
	topo := NewTopology(square())
	mustAdd(t, topo, Edge{U: 0, V: 1}, Edge{U: 1, V: 2}, Edge{U: 2, V: 3})
	topo.AddSteinerNode(geom.Pt(5, 5))
	if !topo.Connected() {
		t.Error("isolated Steiner node must not break connectivity")
	}
	if !topo.IsTree() {
		t.Error("isolated Steiner node must not break tree predicate")
	}
}

func TestShortestPathLengths(t *testing.T) {
	topo := NewTopology(square())
	mustAdd(t, topo, Edge{U: 0, V: 1}, Edge{U: 1, V: 2}, Edge{U: 2, V: 3})
	d := topo.ShortestPathLengths()
	want := []float64{0, 10, 20, 30}
	for i := range want {
		if d[i] != want[i] {
			t.Errorf("dist[%d] = %v, want %v", i, d[i], want[i])
		}
	}
	// Closing the square shortens node 3's path to 10.
	mustAdd(t, topo, Edge{U: 3, V: 0})
	d = topo.ShortestPathLengths()
	if d[3] != 10 || d[2] != 20 {
		t.Errorf("after cycle: %v", d)
	}
}

func TestShortestPathUnreachable(t *testing.T) {
	topo := NewTopology(square())
	mustAdd(t, topo, Edge{U: 0, V: 1})
	d := topo.ShortestPathLengths()
	if !math.IsInf(d[2], 1) && d[2] < 1e300 {
		t.Errorf("unreachable node distance = %v", d[2])
	}
}

func TestTreePathLength(t *testing.T) {
	topo := NewTopology(square())
	mustAdd(t, topo, Edge{U: 0, V: 1}, Edge{U: 1, V: 2}, Edge{U: 2, V: 3})
	got, err := topo.TreePathLength(3)
	if err != nil {
		t.Fatal(err)
	}
	if got != 30 {
		t.Errorf("TreePathLength(3) = %v", got)
	}
	parents, err := topo.RootAt(0)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < topo.NumNodes(); n++ {
		want, err := topo.TreePathLength(n)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := topo.SourcePathLength(parents, n); err != nil || got != want {
			t.Errorf("SourcePathLength(%d) = %v, %v; want TreePathLength's %v", n, got, err, want)
		}
	}
	mustAdd(t, topo, Edge{U: 3, V: 0})
	if _, err := topo.TreePathLength(3); err == nil {
		t.Error("TreePathLength on a graph must error")
	}
}

func TestRootAt(t *testing.T) {
	topo := NewTopology(square())
	mustAdd(t, topo, Edge{U: 0, V: 2}, Edge{U: 2, V: 1}, Edge{U: 2, V: 3})
	parents, err := topo.RootAt(0)
	if err != nil {
		t.Fatal(err)
	}
	if parents[0] != -1 || parents[2] != 0 || parents[1] != 2 || parents[3] != 2 {
		t.Errorf("parents = %v", parents)
	}
	mustAdd(t, topo, Edge{U: 1, V: 3})
	if _, err := topo.RootAt(0); err == nil {
		t.Error("RootAt on cyclic topology must error")
	}
}

func TestAbsentEdges(t *testing.T) {
	topo := NewTopology(square())
	mustAdd(t, topo, Edge{U: 0, V: 1}, Edge{U: 1, V: 2}, Edge{U: 2, V: 3})
	absent := topo.AbsentEdges()
	// C(4,2)=6 pairs − 3 present = 3 absent.
	if len(absent) != 3 {
		t.Fatalf("absent = %v", absent)
	}
	for _, e := range absent {
		if topo.HasEdge(e) {
			t.Errorf("absent edge %v is present", e)
		}
		if e.U >= e.V {
			t.Errorf("absent edge %v not canonical", e)
		}
	}
}

// TestAppendAbsentEdges: the append form extends dst with exactly the
// pairs AbsentEdges returns, and rebuilding into a buffer that is large
// enough allocates nothing.
func TestAppendAbsentEdges(t *testing.T) {
	topo := NewTopology(square())
	mustAdd(t, topo, Edge{U: 0, V: 1}, Edge{U: 1, V: 2})
	prefix := []Edge{{U: 7, V: 9}}
	got := topo.AppendAbsentEdges(prefix)
	if !slices.Equal(got[:1], prefix) || !slices.Equal(got[1:], topo.AbsentEdges()) {
		t.Fatalf("AppendAbsentEdges(%v) = %v, want the prefix then %v", prefix, got, topo.AbsentEdges())
	}
	buf := topo.AppendAbsentEdges(nil)
	if n := testing.AllocsPerRun(100, func() { buf = topo.AppendAbsentEdges(buf[:0]) }); n != 0 {
		t.Errorf("rebuilding into a large enough buffer: %v allocations, want 0", n)
	}
}

func TestCloneIndependence(t *testing.T) {
	topo := NewTopology(square())
	mustAdd(t, topo, Edge{U: 0, V: 1})
	clone := topo.Clone()
	mustAdd(t, clone, Edge{U: 1, V: 2})
	if topo.HasEdge(Edge{U: 1, V: 2}) {
		t.Error("mutating clone affected original")
	}
	if err := clone.RemoveEdge(Edge{U: 0, V: 1}); err != nil {
		t.Fatal(err)
	}
	if !topo.HasEdge(Edge{U: 0, V: 1}) {
		t.Error("removing from clone affected original")
	}
}

func TestSteinerNodesAndCompact(t *testing.T) {
	topo := NewTopology(square())
	used := topo.AddSteinerNode(geom.Pt(5, 5))
	unused := topo.AddSteinerNode(geom.Pt(7, 7))
	if !topo.IsSteiner(used) || topo.IsSteiner(0) {
		t.Error("IsSteiner misclassifies")
	}
	mustAdd(t, topo,
		Edge{U: 0, V: used}, Edge{U: 1, V: used}, Edge{U: 2, V: used}, Edge{U: 3, V: used})

	compacted, remap := topo.Compact()
	if compacted.NumNodes() != 5 {
		t.Fatalf("compacted to %d nodes, want 5", compacted.NumNodes())
	}
	if remap[unused] != -1 {
		t.Error("unused Steiner node must map to -1")
	}
	if compacted.NumEdges() != 4 || !compacted.Connected() {
		t.Error("compacted topology lost structure")
	}
	if compacted.Cost() != topo.Cost() {
		t.Errorf("compaction changed cost: %v vs %v", compacted.Cost(), topo.Cost())
	}
	// Pin locations preserved in order.
	for n := 0; n < 4; n++ {
		if !compacted.Point(n).Eq(topo.Point(n)) {
			t.Errorf("pin %d moved", n)
		}
	}
}

func TestNewTopologyWithSteiner(t *testing.T) {
	topo := NewTopologyWithSteiner(square(), []geom.Point{{X: 5, Y: 5}})
	if topo.NumNodes() != 5 || topo.NumPins() != 4 {
		t.Fatalf("nodes %d pins %d", topo.NumNodes(), topo.NumPins())
	}
	if !topo.IsSteiner(4) {
		t.Error("node 4 must be Steiner")
	}
}

func TestEdgesSortedDeterministic(t *testing.T) {
	topo := NewTopology(square())
	mustAdd(t, topo, Edge{U: 2, V: 3}, Edge{U: 0, V: 1}, Edge{U: 1, V: 3})
	edges := topo.Edges()
	for i := 1; i < len(edges); i++ {
		prev, cur := edges[i-1], edges[i]
		if prev.U > cur.U || (prev.U == cur.U && prev.V >= cur.V) {
			t.Fatalf("edges not sorted: %v", edges)
		}
	}
}

func randomConnectedTopology(rng *rand.Rand, n int) *Topology {
	pts := make([]geom.Point, n)
	used := map[geom.Point]bool{}
	for i := range pts {
		for {
			p := geom.Pt(float64(rng.Intn(10000)), float64(rng.Intn(10000)))
			if !used[p] {
				used[p] = true
				pts[i] = p
				break
			}
		}
	}
	topo := NewTopology(pts)
	// Random spanning tree then random extra edges.
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		u := perm[rng.Intn(i)]
		v := perm[i]
		_ = topo.AddEdge(Edge{U: u, V: v})
	}
	for k := 0; k < n/2; k++ {
		_ = topo.AddEdge(Edge{U: rng.Intn(n), V: rng.Intn(n)})
	}
	return topo
}

func TestRandomTopologyInvariantsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := func() bool {
		n := 3 + rng.Intn(12)
		topo := randomConnectedTopology(rng, n)
		if !topo.Connected() {
			return false
		}
		// Handshake lemma: Σ degrees = 2·|E|.
		degSum := 0
		for v := 0; v < n; v++ {
			degSum += topo.Degree(v)
		}
		if degSum != 2*topo.NumEdges() {
			return false
		}
		// Tree iff |E| = n−1 for connected graphs.
		isTree := topo.NumEdges() == n-1
		if topo.IsTree() != isTree || topo.HasCycle() == isTree {
			return false
		}
		// Dijkstra distances obey the edge relaxation inequality.
		d := topo.ShortestPathLengths()
		for _, e := range topo.Edges() {
			if d[e.V] > d[e.U]+topo.EdgeLength(e)+1e-9 ||
				d[e.U] > d[e.V]+topo.EdgeLength(e)+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestAbsentPlusPresentIsComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(8)
		topo := randomConnectedTopology(rng, n)
		total := len(topo.AbsentEdges()) + topo.NumEdges()
		if want := n * (n - 1) / 2; total != want {
			t.Fatalf("n=%d: absent+present = %d, want %d", n, total, want)
		}
	}
}
