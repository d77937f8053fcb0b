// Package mst constructs minimum spanning trees over signal nets under the
// Manhattan metric. The MST is the paper's universal starting topology: the
// LDRG algorithm and the H1/H2/H3 heuristics all begin from it, and every
// table normalizes delay and cost to MST values.
//
// Both Prim's and Kruskal's algorithms are provided; tests cross-check that
// they produce trees of identical cost.
package mst

import (
	"errors"
	"math"
	"sort"

	"nontree/internal/geom"
	"nontree/internal/graph"
)

// ErrTooFewPoints is returned for inputs with fewer than two points.
var ErrTooFewPoints = errors.New("mst: need at least two points")

// Prim builds the MST over the given points with Prim's algorithm (O(n^2),
// ideal for the complete geometric graphs of small nets) and returns it as
// a routing topology whose node order matches the input.
func Prim(points []geom.Point) (*graph.Topology, error) {
	n := len(points)
	if n < 2 {
		return nil, ErrTooFewPoints
	}
	t := graph.NewTopology(points)

	inTree := make([]bool, n)
	best := make([]float64, n) // cheapest connection cost into the tree
	bestVia := make([]int, n)  // tree endpoint realizing best
	for i := range best {
		best[i] = math.Inf(1)
		bestVia[i] = -1
	}
	inTree[0] = true
	for v := 1; v < n; v++ {
		best[v] = geom.Dist(points[0], points[v])
		bestVia[v] = 0
	}

	for added := 1; added < n; added++ {
		pick := -1
		for v := 0; v < n; v++ {
			if !inTree[v] && (pick < 0 || best[v] < best[pick]) {
				pick = v
			}
		}
		if pick < 0 || math.IsInf(best[pick], 1) {
			return nil, errors.New("mst: internal error: graph not complete")
		}
		if err := t.AddEdge(graph.Edge{U: bestVia[pick], V: pick}); err != nil {
			return nil, err
		}
		inTree[pick] = true
		for v := 0; v < n; v++ {
			if !inTree[v] {
				if d := geom.Dist(points[pick], points[v]); d < best[v] {
					best[v] = d
					bestVia[v] = pick
				}
			}
		}
	}
	return t, nil
}

// Kruskal builds the MST with Kruskal's algorithm over the complete graph.
// It exists only as an independent cross-check of Prim in tests.
func Kruskal(points []geom.Point) (*graph.Topology, error) {
	n := len(points)
	if n < 2 {
		return nil, ErrTooFewPoints
	}
	type weightedEdge struct {
		e graph.Edge
		w float64
	}
	edges := make([]weightedEdge, 0, n*(n-1)/2)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			edges = append(edges, weightedEdge{graph.Edge{U: u, V: v}, geom.Dist(points[u], points[v])})
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].w != edges[j].w {
			return edges[i].w < edges[j].w
		}
		// Deterministic tie-break so Prim/Kruskal comparisons are stable.
		if edges[i].e.U != edges[j].e.U {
			return edges[i].e.U < edges[j].e.U
		}
		return edges[i].e.V < edges[j].e.V
	})

	t := graph.NewTopology(points)
	uf := NewUnionFind(n)
	added := 0
	for _, we := range edges {
		if uf.Union(we.e.U, we.e.V) {
			if err := t.AddEdge(we.e); err != nil {
				return nil, err
			}
			added++
			if added == n-1 {
				break
			}
		}
	}
	if added != n-1 {
		return nil, errors.New("mst: could not span all points (coincident points?)")
	}
	return t, nil
}

// Cost returns the total Manhattan MST cost over points without
// materializing a topology. The Iterated 1-Steiner search re-scores its
// near-best candidates with exactly this Prim's arithmetic, resumed from a
// recorded run over the points; its tests hold the two to the same bits.
func Cost(points []geom.Point) float64 {
	n := len(points)
	if n < 2 {
		return 0
	}
	inTree := make([]bool, n)
	best := make([]float64, n)
	for i := range best {
		best[i] = math.Inf(1)
	}
	inTree[0] = true
	for v := 1; v < n; v++ {
		best[v] = geom.Dist(points[0], points[v])
	}
	var total float64
	for added := 1; added < n; added++ {
		pick := -1
		for v := 0; v < n; v++ {
			if !inTree[v] && (pick < 0 || best[v] < best[pick]) {
				pick = v
			}
		}
		total += best[pick]
		inTree[pick] = true
		for v := 0; v < n; v++ {
			if !inTree[v] {
				if d := geom.Dist(points[pick], points[v]); d < best[v] {
					best[v] = d
				}
			}
		}
	}
	return total
}

// UnionFind is a disjoint-set forest with union by rank and path halving.
type UnionFind struct {
	parent []int
	rank   []int
	count  int
}

// NewUnionFind returns a UnionFind over n singleton sets.
func NewUnionFind(n int) *UnionFind {
	uf := &UnionFind{
		parent: make([]int, n),
		rank:   make([]int, n),
		count:  n,
	}
	for i := range uf.parent {
		uf.parent[i] = i
	}
	return uf
}

// Find returns the representative of x's set.
func (uf *UnionFind) Find(x int) int {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]] // path halving
		x = uf.parent[x]
	}
	return x
}

// Union merges the sets of x and y, reporting whether a merge occurred.
func (uf *UnionFind) Union(x, y int) bool {
	rx, ry := uf.Find(x), uf.Find(y)
	if rx == ry {
		return false
	}
	if uf.rank[rx] < uf.rank[ry] {
		rx, ry = ry, rx
	}
	uf.parent[ry] = rx
	if uf.rank[rx] == uf.rank[ry] {
		uf.rank[rx]++
	}
	uf.count--
	return true
}

// Sets returns the number of disjoint sets remaining.
func (uf *UnionFind) Sets() int { return uf.count }
