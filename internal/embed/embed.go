// Package embed realizes a routing topology's abstract edges as rectilinear
// geometry: each edge becomes an axis-aligned L-shape (or a single straight
// segment when the endpoints share a coordinate), and the package counts
// wire crossings between different edges — a routability indicator for the
// extra wires non-tree routing adds.
//
// The Manhattan edge length is invariant under the choice of L orientation,
// so embedding never changes cost or delay; it only changes where wires sit
// and therefore how often they cross.
package embed

import (
	"math"
	"slices"

	"nontree/internal/geom"
	"nontree/internal/graph"
)

// Policy selects how each diagonal edge's L-shape is oriented.
type Policy int

const (
	// HorizontalFirst routes from the lower-indexed endpoint horizontally,
	// then vertically.
	HorizontalFirst Policy = iota
	// VerticalFirst routes vertically first.
	VerticalFirst
	// Greedy runs single-edge local search: starting from each fixed
	// policy's embedding, it repeatedly re-orients whichever edge's flip
	// reduces crossings, until no flip helps, and keeps the better of the
	// two results. It therefore never produces more crossings than either
	// fixed policy.
	Greedy
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case HorizontalFirst:
		return "horizontal-first"
	case VerticalFirst:
		return "vertical-first"
	case Greedy:
		return "greedy"
	}
	return "unknown"
}

// Segment is an axis-aligned wire segment.
type Segment struct {
	A, B geom.Point
}

func (s Segment) horizontal() bool { return s.A.Y == s.B.Y }

// Length returns the segment's length.
func (s Segment) Length() float64 { return geom.Dist(s.A, s.B) }

// Embedding is a concrete rectilinear realization of a topology.
type Embedding struct {
	// Segments maps each canonical edge to its one or two segments.
	Segments map[graph.Edge][]Segment
	// Bends counts edges embedded with an L (one bend each).
	Bends int
}

// Embed realizes the topology's edges under the given policy.
func Embed(t *graph.Topology, policy Policy) *Embedding {
	if policy == Greedy {
		best := refine(t, embedFixed(t, true))
		alt := refine(t, embedFixed(t, false))
		if alt.Crossings() < best.Crossings() {
			return alt
		}
		return best
	}
	return embedFixed(t, policy == HorizontalFirst)
}

func embedFixed(t *graph.Topology, horizontalFirst bool) *Embedding {
	e := &Embedding{Segments: make(map[graph.Edge][]Segment, t.NumEdges())}
	for _, edge := range t.Edges() {
		a, b := t.Point(edge.U), t.Point(edge.V)
		if a.X == b.X || a.Y == b.Y {
			e.Segments[edge] = []Segment{{A: a, B: b}}
			continue
		}
		e.Segments[edge] = lShape(a, b, horizontalFirst)
		e.Bends++
	}
	return e
}

// refine performs single-edge orientation flips while any flip reduces the
// total crossing count, so the result never exceeds the start's count.
func refine(t *graph.Topology, e *Embedding) *Embedding {
	for improved := true; improved; {
		improved = false
		for _, edge := range t.Edges() {
			segs := e.Segments[edge]
			if len(segs) != 2 {
				continue // straight edge: nothing to flip
			}
			a, b := t.Point(edge.U), t.Point(edge.V)
			cur := crossingsAgainst(e, edge, segs)
			// The current corner tells us the orientation; try the other.
			flippedHorizontal := segs[0].A.Y != segs[0].B.Y // currently vertical-first?
			alt := lShape(a, b, flippedHorizontal)
			if crossingsAgainst(e, edge, alt) < cur {
				e.Segments[edge] = alt
				improved = true
			}
		}
	}
	return e
}

// lShape returns the two segments of an L from a to b.
func lShape(a, b geom.Point, horizontalFirst bool) []Segment {
	var corner geom.Point
	if horizontalFirst {
		corner = geom.Point{X: b.X, Y: a.Y}
	} else {
		corner = geom.Point{X: a.X, Y: b.Y}
	}
	return []Segment{{A: a, B: corner}, {A: corner, B: b}}
}

// Crossings counts wire conflicts between segments of *different* edges:
// transversal crossings (an H and a V intersecting in both interiors) and
// collinear overlaps of positive length. Touches at segment endpoints are
// not counted — wires legitimately meet at pins and junctions.
func (e *Embedding) Crossings() int {
	edges := make([]graph.Edge, 0, len(e.Segments))
	for edge := range e.Segments {
		edges = append(edges, edge)
	}
	// Canonical order for determinism.
	slices.SortFunc(edges, graph.Edge.Compare)
	total := 0
	for i := 0; i < len(edges); i++ {
		for j := i + 1; j < len(edges); j++ {
			if sharesEndpoint(edges[i], edges[j]) {
				// Adjacent edges meet at their shared node by construction;
				// counting that touch would penalize every tree.
				continue
			}
			for _, s1 := range e.Segments[edges[i]] {
				for _, s2 := range e.Segments[edges[j]] {
					total += conflicts(s1, s2)
				}
			}
		}
	}
	return total
}

// crossingsAgainst counts conflicts of candidate segments against all
// already-placed edges (excluding edge itself and its neighbors).
func crossingsAgainst(e *Embedding, edge graph.Edge, segs []Segment) int {
	total := 0
	for other, placed := range e.Segments {
		if other == edge || sharesEndpoint(other, edge) {
			continue
		}
		for _, s1 := range segs {
			for _, s2 := range placed {
				total += conflicts(s1, s2)
			}
		}
	}
	return total
}

func sharesEndpoint(a, b graph.Edge) bool {
	return a.U == b.U || a.U == b.V || a.V == b.U || a.V == b.V
}

// conflicts returns 1 if the two axis-aligned segments cross transversally
// in their interiors or overlap collinearly with positive length.
func conflicts(s1, s2 Segment) int {
	h1, h2 := s1.horizontal(), s2.horizontal()
	switch {
	case h1 && !h2:
		return crossHV(s1, s2)
	case !h1 && h2:
		return crossHV(s2, s1)
	case h1 && h2:
		if s1.A.Y != s2.A.Y {
			return 0
		}
		return overlap1D(s1.A.X, s1.B.X, s2.A.X, s2.B.X)
	default:
		if s1.A.X != s2.A.X {
			return 0
		}
		return overlap1D(s1.A.Y, s1.B.Y, s2.A.Y, s2.B.Y)
	}
}

// crossHV reports a transversal interior crossing of horizontal h and
// vertical v. Touching an endpoint does not count.
func crossHV(h, v Segment) int {
	x1, x2 := math.Min(h.A.X, h.B.X), math.Max(h.A.X, h.B.X)
	y1, y2 := math.Min(v.A.Y, v.B.Y), math.Max(v.A.Y, v.B.Y)
	if v.A.X > x1 && v.A.X < x2 && h.A.Y > y1 && h.A.Y < y2 {
		return 1
	}
	return 0
}

// overlap1D reports whether intervals [a1,a2] and [b1,b2] (unordered)
// overlap with positive length.
func overlap1D(a1, a2, b1, b2 float64) int {
	lo1, hi1 := math.Min(a1, a2), math.Max(a1, a2)
	lo2, hi2 := math.Min(b1, b2), math.Max(b1, b2)
	if math.Min(hi1, hi2)-math.Max(lo1, lo2) > 0 {
		return 1
	}
	return 0
}

// PlanarFilter reports whether candidate edge e could be added to the
// topology without introducing wire crossings: the current wires are
// embedded greedily, and the candidate is accepted if either L orientation
// (or its straight segment) conflicts with nothing. Designed as a
// core.Options.CandidateFilter for routability-constrained LDRG.
func PlanarFilter(t *graph.Topology, e graph.Edge) bool {
	base := Embed(t, Greedy)
	a, b := t.Point(e.U), t.Point(e.V)
	var candidates [][]Segment
	if a.X == b.X || a.Y == b.Y {
		candidates = [][]Segment{{{A: a, B: b}}}
	} else {
		candidates = [][]Segment{lShape(a, b, true), lShape(a, b, false)}
	}
	for _, segs := range candidates {
		if crossingsAgainst(base, e, segs) == 0 {
			return true
		}
	}
	return false
}
