// Package graph implements routing topologies: undirected geometric graphs
// over the pins of a signal net (plus optional Steiner points), with edge
// costs equal to Manhattan distance.
//
// This is the object the paper generalizes: classical routers restrict the
// topology to a tree; the Non-Tree Routing algorithms operate on arbitrary
// connected graphs. Topology therefore supports both, with predicates to
// distinguish them.
package graph

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"nontree/internal/geom"
)

// Edge is an undirected edge between node indices U and V. Canonical form
// has U < V; Canon normalizes.
type Edge struct {
	U, V int
}

// Canon returns e with endpoints ordered so U < V.
func (e Edge) Canon() Edge {
	if e.U > e.V {
		return Edge{e.V, e.U}
	}
	return e
}

// Other returns the endpoint of e that is not n. It panics if n is not an
// endpoint; callers always walk edges from a known endpoint.
func (e Edge) Other(n int) int {
	switch n {
	case e.U:
		return e.V
	case e.V:
		return e.U
	}
	panic(fmt.Sprintf("graph: node %d is not an endpoint of edge %v", n, e))
}

// String renders the edge as "u-v".
func (e Edge) String() string { return fmt.Sprintf("%d-%d", e.U, e.V) }

// Errors reported by Topology mutators.
var (
	ErrSelfLoop     = errors.New("graph: self-loop edges are not allowed")
	ErrNodeRange    = errors.New("graph: node index out of range")
	ErrDupEdge      = errors.New("graph: edge already present")
	ErrMissingEdge  = errors.New("graph: edge not present")
	ErrZeroLength   = errors.New("graph: zero-length edge between distinct nodes")
	ErrDisconnected = errors.New("graph: topology is not connected")
)

// Topology is an undirected routing graph over a fixed set of located nodes.
// Nodes 0..NumPins-1 are the signal net's pins in net order (node 0 is the
// source); nodes NumPins.. are Steiner points added by Steiner constructions.
type Topology struct {
	points   []geom.Point
	numPins  int
	adj      [][]int // sorted adjacency lists, the only edge store
	numEdges int
}

// NewTopology creates an edgeless topology over the given pin locations.
// All initial nodes are pins; use AddSteinerNode for junction points.
func NewTopology(pins []geom.Point) *Topology {
	pts := make([]geom.Point, len(pins))
	copy(pts, pins)
	return &Topology{
		points:  pts,
		numPins: len(pins),
		adj:     make([][]int, len(pins)),
	}
}

// NewTopologyWithSteiner creates an edgeless topology over pins followed by
// the given Steiner points.
func NewTopologyWithSteiner(pins, steiner []geom.Point) *Topology {
	t := NewTopology(pins)
	for _, p := range steiner {
		t.AddSteinerNode(p)
	}
	return t
}

// Compact returns a copy of the topology with isolated (degree-0) Steiner
// nodes removed, together with a mapping old→new node index (-1 for removed
// nodes). Pins are always retained. Steiner constructions use this to drop
// junction candidates that ended up unused.
func (t *Topology) Compact() (*Topology, []int) {
	remap := make([]int, len(t.points))
	keep := make([]geom.Point, 0, len(t.points))
	for n, p := range t.points {
		if n < t.numPins || t.Degree(n) > 0 {
			remap[n] = len(keep)
			keep = append(keep, p)
		} else {
			remap[n] = -1
		}
	}
	c := NewTopology(keep[:t.numPins])
	for _, p := range keep[t.numPins:] {
		c.AddSteinerNode(p)
	}
	for _, e := range t.Edges() {
		ne := Edge{remap[e.U], remap[e.V]}
		if err := c.AddEdge(ne); err != nil {
			// Edges among retained nodes cannot collide or self-loop;
			// reaching here indicates internal corruption.
			panic(fmt.Sprintf("graph: Compact remap failed for %v: %v", e, err))
		}
	}
	return c, remap
}

// NumNodes returns the total node count (pins plus Steiner points).
func (t *Topology) NumNodes() int { return len(t.points) }

// NumPins returns the count of original net pins.
func (t *Topology) NumPins() int { return t.numPins }

// NumEdges returns the number of edges.
func (t *Topology) NumEdges() int { return t.numEdges }

// Point returns the location of node n.
func (t *Topology) Point(n int) geom.Point { return t.points[n] }

// Points returns a copy of all node locations.
func (t *Topology) Points() []geom.Point {
	out := make([]geom.Point, len(t.points))
	copy(out, t.points)
	return out
}

// IsSteiner reports whether node n is a Steiner point rather than a pin.
func (t *Topology) IsSteiner(n int) bool { return n >= t.numPins }

// AddSteinerNode appends a Steiner point and returns its node index.
func (t *Topology) AddSteinerNode(p geom.Point) int {
	t.points = append(t.points, p)
	t.adj = append(t.adj, nil)
	return len(t.points) - 1
}

// EdgeLength returns the Manhattan length of edge e, in µm (whether or
// not it is present in the topology).
//
//nontree:unit return µm
func (t *Topology) EdgeLength(e Edge) float64 {
	return geom.Dist(t.points[e.U], t.points[e.V])
}

// ZeroLength reports whether edge e would connect coincident points.
// Manhattan distance of identical coordinates is exactly 0.0, so this is a
// degeneracy predicate, not a float comparison on computed scores — the
// algorithm packages use it instead of `EdgeLength(e) == 0`, which the
// floatcmp analyzer rejects there.
func (t *Topology) ZeroLength(e Edge) bool {
	return t.EdgeLength(e) == 0
}

// HasEdge reports whether edge e is present (never for out-of-range nodes).
func (t *Topology) HasEdge(e Edge) bool {
	e = e.Canon()
	if e.U < 0 || e.V >= len(t.adj) {
		return false
	}
	_, ok := slices.BinarySearch(t.adj[e.U], e.V)
	return ok
}

// AddEdge inserts edge e. It rejects self-loops, out-of-range endpoints,
// duplicate edges, and zero-length edges between distinct nodes (which would
// create zero-resistance wires the delay models cannot stamp).
func (t *Topology) AddEdge(e Edge) error {
	e = e.Canon()
	if e.U == e.V {
		return ErrSelfLoop
	}
	if e.U < 0 || e.V >= len(t.points) {
		return fmt.Errorf("%w: %v with %d nodes", ErrNodeRange, e, len(t.points))
	}
	if t.HasEdge(e) {
		return fmt.Errorf("%w: %v", ErrDupEdge, e)
	}
	if t.EdgeLength(e) == 0 {
		return fmt.Errorf("%w: %v", ErrZeroLength, e)
	}
	t.numEdges++
	t.adj[e.U] = insertSorted(t.adj[e.U], e.V)
	t.adj[e.V] = insertSorted(t.adj[e.V], e.U)
	return nil
}

// RemoveEdge deletes edge e.
func (t *Topology) RemoveEdge(e Edge) error {
	e = e.Canon()
	if !t.HasEdge(e) {
		return fmt.Errorf("%w: %v", ErrMissingEdge, e)
	}
	t.numEdges--
	t.adj[e.U] = removeSorted(t.adj[e.U], e.V)
	t.adj[e.V] = removeSorted(t.adj[e.V], e.U)
	return nil
}

func insertSorted(s []int, v int) []int {
	i := sort.SearchInts(s, v)
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func removeSorted(s []int, v int) []int {
	i := sort.SearchInts(s, v)
	return append(s[:i], s[i+1:]...)
}

// Neighbors returns the sorted adjacency list of node n. The returned slice
// must not be modified.
func (t *Topology) Neighbors(n int) []int { return t.adj[n] }

// Degree returns the number of edges incident to node n.
func (t *Topology) Degree(n int) int { return len(t.adj[n]) }

// Edges returns all edges in canonical form, sorted by (U, V): each adj[u]
// from its first neighbour above u, so nothing is sorted or cached.
func (t *Topology) Edges() []Edge {
	out := make([]Edge, 0, t.numEdges)
	for u, a := range t.adj {
		for _, v := range a[sort.SearchInts(a, u):] {
			out = append(out, Edge{u, v})
		}
	}
	return out
}

// Cost returns the total Manhattan wirelength of the topology — the "cost"
// metric of the paper's tables. Summation follows the canonical edge order,
// so the floating-point rounding is the same on every run.
//
//nontree:unit return µm
func (t *Topology) Cost() float64 {
	var sum float64
	for _, e := range t.Edges() {
		sum += t.EdgeLength(e)
	}
	return sum
}

// Clone returns a deep copy of the topology. The adjacency lists share one
// backing array, each capped at its length so a later insertion
// reallocates its own list instead of overwriting the next.
func (t *Topology) Clone() *Topology {
	c := &Topology{
		points:   append([]geom.Point(nil), t.points...),
		numPins:  t.numPins,
		adj:      make([][]int, len(t.adj)),
		numEdges: t.numEdges,
	}
	flat := make([]int, 0, 2*t.numEdges)
	for i, a := range t.adj {
		flat = append(flat, a...)
		c.adj[i] = flat[len(flat)-len(a) : len(flat) : len(flat)]
	}
	return c
}

// Connected reports whether every node with at least one incident edge —
// plus every pin — is reachable from the source pin (node 0). Isolated
// Steiner points (degree 0) are ignored: they carry no wire.
func (t *Topology) Connected() bool {
	if len(t.points) == 0 {
		return true
	}
	reach := t.reachableFrom(0)
	for n := 0; n < len(t.points); n++ {
		if n < t.numPins || t.Degree(n) > 0 {
			if !reach[n] {
				return false
			}
		}
	}
	return true
}

func (t *Topology) reachableFrom(start int) []bool {
	reach := make([]bool, len(t.points))
	stack := []int{start}
	reach[start] = true
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, m := range t.adj[n] {
			if !reach[m] {
				reach[m] = true
				stack = append(stack, m)
			}
		}
	}
	return reach
}

// IsTree reports whether the topology is a connected acyclic graph spanning
// all its non-isolated nodes — the classical routing-tree restriction that
// the paper abandons.
func (t *Topology) IsTree() bool {
	if !t.Connected() {
		return false
	}
	active := 0
	for n := 0; n < len(t.points); n++ {
		if n < t.numPins || t.Degree(n) > 0 {
			active++
		}
	}
	return t.numEdges == active-1
}

// HasCycle reports whether the topology contains any cycle.
func (t *Topology) HasCycle() bool {
	seen := make([]bool, len(t.points))
	for start := range t.points {
		if seen[start] {
			continue
		}
		// Iterative DFS tracking the parent edge.
		type frame struct{ node, parent int }
		stack := []frame{{start, -1}}
		seen[start] = true
		for len(stack) > 0 {
			f := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, m := range t.adj[f.node] {
				if m == f.parent {
					continue
				}
				if seen[m] {
					return true
				}
				seen[m] = true
				stack = append(stack, frame{m, f.node})
			}
		}
	}
	return false
}

// ShortestPathLengths returns, for every node, the length of the shortest
// path from the source (node 0) through the topology, using Manhattan edge
// lengths (Dijkstra). Unreachable nodes get +Inf.
func (t *Topology) ShortestPathLengths() []float64 {
	const inf = 1e308
	dist := make([]float64, len(t.points))
	for i := range dist {
		dist[i] = inf
	}
	dist[0] = 0
	pq := &distHeap{items: []distItem{{node: 0, dist: 0}}}
	for pq.Len() > 0 {
		it := pq.pop()
		if it.dist > dist[it.node] {
			continue
		}
		for _, m := range t.adj[it.node] {
			d := it.dist + geom.Dist(t.points[it.node], t.points[m])
			if d < dist[m] {
				dist[m] = d
				pq.push(distItem{node: m, dist: d})
			}
		}
	}
	return dist
}

// TreePathLength returns the length of the unique tree path from the source
// to node n. It must only be called on trees; on graphs use
// ShortestPathLengths. Returns an error when the topology is not a tree or
// n is unreachable.
func (t *Topology) TreePathLength(n int) (float64, error) {
	if !t.IsTree() {
		return 0, errors.New("graph: TreePathLength requires a tree topology")
	}
	parents, err := t.RootAt(0)
	if err != nil {
		return 0, err
	}
	var sum float64
	for cur := n; cur != 0; cur = parents[cur] {
		if parents[cur] < 0 {
			return 0, fmt.Errorf("graph: node %d unreachable from source", n)
		}
		sum += geom.Dist(t.points[cur], t.points[parents[cur]])
	}
	return sum, nil
}

// RootAt orients a tree topology at the given root, returning parents[n] =
// parent of n (root's parent is -1; unreachable nodes also -1). Returns an
// error if the topology contains a cycle.
func (t *Topology) RootAt(root int) ([]int, error) {
	if t.HasCycle() {
		return nil, errors.New("graph: RootAt requires an acyclic topology")
	}
	parents := make([]int, len(t.points))
	for i := range parents {
		parents[i] = -1
	}
	seen := make([]bool, len(t.points))
	seen[root] = true
	stack := []int{root}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, m := range t.adj[n] {
			if !seen[m] {
				seen[m] = true
				parents[m] = n
				stack = append(stack, m)
			}
		}
	}
	return parents, nil
}

// AbsentEdges returns every node pair not currently connected by an edge,
// in canonical sorted order — the candidate set examined by the LDRG greedy
// loop ("∃ e_ij ∈ N × N", Figure 4 of the paper).
func (t *Topology) AbsentEdges() []Edge {
	n := len(t.points)
	out := make([]Edge, 0, n*(n-1)/2-t.numEdges)
	for u, a := range t.adj {
		// Merge-walk the neighbours above u against v = u+1, …, n-1.
		i := sort.SearchInts(a, u)
		for v := u + 1; v < n; v++ {
			if i < len(a) && a[i] == v {
				i++
			} else if e := (Edge{u, v}); t.EdgeLength(e) > 0 {
				out = append(out, e)
			}
		}
	}
	return out
}

// distHeap is a minimal binary min-heap for Dijkstra, avoiding
// container/heap interface overhead in the hot path.
type distItem struct {
	node int
	dist float64
}

type distHeap struct{ items []distItem }

func (h *distHeap) Len() int { return len(h.items) }

func (h *distHeap) push(it distItem) {
	h.items = append(h.items, it)
	i := len(h.items) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.items[p].dist <= h.items[i].dist {
			break
		}
		h.items[p], h.items[i] = h.items[i], h.items[p]
		i = p
	}
}

func (h *distHeap) pop() distItem {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h.items) && h.items[l].dist < h.items[small].dist {
			small = l
		}
		if r < len(h.items) && h.items[r].dist < h.items[small].dist {
			small = r
		}
		if small == i {
			break
		}
		h.items[i], h.items[small] = h.items[small], h.items[i]
		i = small
	}
	return top
}
