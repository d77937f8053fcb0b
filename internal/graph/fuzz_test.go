package graph

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"testing"

	"nontree/internal/geom"
)

// edgeSet is the reference model FuzzTopologyVsEdgeSet holds a Topology
// against: node locations plus a plain map of canonical edges, with every
// query answered by brute force.
type edgeSet struct {
	points  []geom.Point
	numPins int
	edges   map[Edge]bool
}

func (m *edgeSet) clone() *edgeSet {
	c := &edgeSet{points: append([]geom.Point(nil), m.points...), numPins: m.numPins, edges: map[Edge]bool{}}
	for e := range m.edges {
		c.edges[e] = true
	}
	return c
}

func (m *edgeSet) degree(n int) int {
	d := 0
	for e := range m.edges {
		if e.U == n || e.V == n {
			d++
		}
	}
	return d
}

// add predicts AddEdge's error in the order AddEdge checks.
func (m *edgeSet) add(e Edge) error {
	e = e.Canon()
	switch {
	case e.U == e.V:
		return ErrSelfLoop
	case e.U < 0 || e.V >= len(m.points):
		return ErrNodeRange
	case m.edges[e]:
		return ErrDupEdge
	case geom.Dist(m.points[e.U], m.points[e.V]) == 0:
		return ErrZeroLength
	}
	m.edges[e] = true
	return nil
}

func (m *edgeSet) remove(e Edge) error {
	e = e.Canon()
	if !m.edges[e] {
		return ErrMissingEdge
	}
	delete(m.edges, e)
	return nil
}

// compact mirrors Topology.Compact: isolated Steiner nodes go, the rest
// keep their order.
func (m *edgeSet) compact() *edgeSet {
	remap := make([]int, len(m.points))
	c := &edgeSet{numPins: m.numPins, edges: map[Edge]bool{}}
	for n, p := range m.points {
		remap[n] = -1
		if n < m.numPins || m.degree(n) > 0 {
			remap[n] = len(c.points)
			c.points = append(c.points, p)
		}
	}
	for e := range m.edges {
		c.edges[Edge{remap[e.U], remap[e.V]}.Canon()] = true
	}
	return c
}

func (m *edgeSet) sortedEdges() []Edge {
	out := make([]Edge, 0, len(m.edges))
	for e := range m.edges {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	return out
}

// isTree: every pin and non-isolated node lies in node 0's union-find
// component, and the edges number one less than those nodes.
func (m *edgeSet) isTree() bool {
	parent := make([]int, len(m.points))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		if parent[i] != i {
			parent[i] = find(parent[i])
		}
		return parent[i]
	}
	for e := range m.edges {
		parent[find(e.U)] = find(e.V)
	}
	active := 0
	for n := range m.points {
		if n < m.numPins || m.degree(n) > 0 {
			active++
			if find(n) != find(0) {
				return false
			}
		}
	}
	return len(m.edges) == active-1
}

// check compares every query FuzzTopologyVsEdgeSet referees.
func (m *edgeSet) check(topo *Topology) error {
	n := len(m.points)
	if topo.NumNodes() != n || topo.NumEdges() != len(m.edges) {
		return fmt.Errorf("%d nodes, %d edges; model has %d, %d", topo.NumNodes(), topo.NumEdges(), n, len(m.edges))
	}
	want := m.sortedEdges()
	if got := topo.Edges(); fmt.Sprint(got) != fmt.Sprint(want) {
		return fmt.Errorf("Edges = %v, model %v", got, want)
	}
	var absent []Edge
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if e := (Edge{u, v}); !m.edges[e] && geom.Dist(m.points[u], m.points[v]) > 0 {
				absent = append(absent, e)
			}
		}
	}
	if got := topo.AbsentEdges(); fmt.Sprint(got) != fmt.Sprint(absent) {
		return fmt.Errorf("AbsentEdges = %v, model %v", got, absent)
	}
	for u := -2; u < n+2; u++ {
		for v := -2; v < n+2; v++ {
			e := Edge{u, v}
			if got := topo.HasEdge(e); got != m.edges[e.Canon()] {
				return fmt.Errorf("HasEdge(%v) = %v", e, got)
			}
		}
	}
	if got, want := topo.IsTree(), m.isTree(); got != want {
		return fmt.Errorf("IsTree = %v, model %v", got, want)
	}
	var cost float64
	for _, e := range want {
		cost += geom.Dist(m.points[e.U], m.points[e.V])
	}
	if got := topo.Cost(); math.Float64bits(got) != math.Float64bits(cost) {
		return fmt.Errorf("Cost = %v, model %v", got, cost)
	}
	return nil
}

// FuzzTopologyVsEdgeSet is the referee for the adjacency-list edge store:
// random AddEdge, RemoveEdge, AddSteinerNode, Clone and Compact sequences
// must leave a Topology answering Edges, AbsentEdges, HasEdge (out-of-range
// nodes included), NumEdges, IsTree and Cost (bitwise) exactly as a
// map-based model does, with the same mutator errors. A clone must not see
// later mutations of its copy.
func FuzzTopologyVsEdgeSet(f *testing.F) {
	f.Add([]byte{3, 0, 0, 1, 0, 1, 2, 0, 0, 2, 1, 0, 1, 3, 0, 0, 4, 0})
	f.Add([]byte{5, 2, 7, 7, 0, 0, 5, 0, 5, 1, 3, 0, 0, 0, 1, 4, 0, 0, 1, 2, 1, 4, 3, 0})
	f.Add([]byte{1, 2, 0, 0, 2, 0, 0, 0, 1, 2, 0, 2, 3, 0, 0, 2, 0, 1, 4, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		// Coordinates on a 4×4 grid, so coincident points (zero-length
		// edges) are common.
		pt := func(b byte) geom.Point { return geom.Point{X: float64(b % 4), Y: float64(b / 4 % 4)} }
		pins := make([]geom.Point, 1+int(data[0])%6)
		for i := range pins {
			pins[i] = pt(byte(i * 5))
		}
		topo := NewTopology(pins)
		model := &edgeSet{points: append([]geom.Point(nil), pins...), numPins: len(pins), edges: map[Edge]bool{}}
		type frozen struct {
			topo  *Topology
			model *edgeSet
		}
		var clones []frozen
		// At most 48 operations over at most 12 nodes keep each input's
		// brute-force checks cheap.
		for ops := data[1:min(len(data), 1+3*48)]; len(ops) >= 3; ops = ops[3:] {
			// Endpoints range over -1..n so out-of-range nodes occur.
			node := func(b byte) int { return int(b)%(topo.NumNodes()+2) - 1 }
			e := Edge{node(ops[1]), node(ops[2])}
			switch ops[0] % 5 {
			case 0:
				if got, want := topo.AddEdge(e), model.add(e); !errors.Is(got, want) {
					t.Fatalf("AddEdge(%v) = %v, model %v", e, got, want)
				}
			case 1:
				if got, want := topo.RemoveEdge(e), model.remove(e); !errors.Is(got, want) {
					t.Fatalf("RemoveEdge(%v) = %v, model %v", e, got, want)
				}
			case 2:
				if topo.NumNodes() >= 12 {
					continue
				}
				p := pt(ops[1])
				if n := topo.AddSteinerNode(p); n != len(model.points) {
					t.Fatalf("AddSteinerNode = %d, model %d", n, len(model.points))
				}
				model.points = append(model.points, p)
			case 3:
				clones = append(clones, frozen{topo, model.clone()})
				topo = topo.Clone()
			case 4:
				topo, _ = topo.Compact()
				model = model.compact()
			}
			if err := model.check(topo); err != nil {
				t.Fatalf("after op %d on %v: %v", ops[0]%5, e, err)
			}
		}
		for i, c := range clones {
			if err := c.model.check(c.topo); err != nil {
				t.Fatalf("clone %d changed after cloning: %v", i, err)
			}
		}
	})
}
