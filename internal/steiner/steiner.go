// Package steiner implements the Iterated 1-Steiner heuristic of Kahng and
// Robins, the Steiner-tree construction the paper prescribes for Step 1 of
// its SLDRG algorithm ("an efficient implementation of the Iterated
// 1-Steiner algorithm of Kahng and Robins may be used").
//
// The heuristic repeatedly finds the single Hanan-grid point whose addition
// most reduces the MST cost of the current point set, adds it, and repeats
// until no point yields a positive saving. Unused (low-degree) Steiner
// points are then pruned. Iterated 1-Steiner averages within a few percent
// of optimal rectilinear Steiner minimal trees.
//
// Each round scores every candidate in O(1) instead of with an O(n²) MST.
// A candidate keeps its star, its nearest point in each of the eight
// octants around it; in the Manhattan metric an MST of the points plus the
// candidate needs no other edge to it. The round builds the MST of the
// points once, with the heaviest edge on every tree path, and the cost with
// the star added then follows from two Prims over at most nine nodes. Their
// weights depend only on the star and on those heaviest edges between its
// ends, so a candidate carries them to the next round and reruns them only
// when one of these changed. This estimate is the exact MST weight summed
// in another order, so it can differ from mst.Cost in the last bits.
//
// Candidates whose estimate lies within 1e-9·cost of the round's best are
// scored again exactly, in order, under the plain first-strict-maximum
// rule. Every candidate that rule could pick passes that filter, so the
// chosen points, and the trees, are bit-identical to scoring every
// candidate with mst.Cost. The exact score is mst.Cost's own arithmetic
// without its O(n²) restart: the round records mst.Cost's Prim over the
// points, and a candidate, the last node, loses every tie, so it follows
// the recorded steps until the first whose weight exceeds its distance to
// the tree and joins there. Each later step weighs the recorded next node
// only against the few nodes the candidate, or a node it pulled in ahead
// of its turn, brought closer to the tree.
package steiner

import (
	"errors"

	"nontree/internal/geom"
	"nontree/internal/graph"
	"nontree/internal/mst"
)

// Options tunes the Iterated 1-Steiner run. It has no settings: the search
// always runs over the pins' Hanan grid until no point saves cost.
type Options struct{}

// ErrTooFewPins mirrors the MST requirement of at least two points.
var ErrTooFewPins = errors.New("steiner: need at least two pins")

// Tree runs Iterated 1-Steiner over the pins and returns a Steiner tree
// topology: nodes 0..len(pins)-1 are the pins (node 0 the source), and the
// surviving Steiner points follow. The result is always a tree spanning
// every pin.
func Tree(pins []geom.Point, _ Options) (*graph.Topology, error) {
	if len(pins) < 2 {
		return nil, ErrTooFewPins
	}

	points := make([]geom.Point, len(pins))
	copy(points, pins)
	numPins := len(pins)

	s := newSearch(points)
	baseCost := mst.Cost(points)

	for {
		bestIdx, bestGain := s.best(baseCost)
		if bestIdx < 0 {
			break
		}
		s.accept(bestIdx)
		baseCost -= bestGain
	}

	return assemble(s.points, numPins)
}

// assemble builds the MST over pins+Steiner points, prunes useless Steiner
// points (degree ≤ 2), and returns the compacted topology.
func assemble(points []geom.Point, numPins int) (*graph.Topology, error) {
	spanning, err := mst.Prim(points)
	if err != nil {
		return nil, err
	}
	t := graph.NewTopologyWithSteiner(points[:numPins], points[numPins:])
	for _, e := range spanning.Edges() {
		if err := t.AddEdge(e); err != nil {
			return nil, err
		}
	}
	Prune(t)
	compacted, _ := t.Compact()
	return compacted, nil
}

// Prune removes Steiner points that do not genuinely branch the tree:
// degree-1 Steiner leaves are deleted outright, and degree-2 Steiner
// pass-throughs are shorted (their two edges replaced by a direct edge,
// which in the Manhattan metric never increases cost). Pruned nodes are
// left isolated; callers typically follow with Topology.Compact.
//
// Prune operates on trees; on general graphs it still terminates but only
// simplifies tree-like fringes.
func Prune(t *graph.Topology) {
	changed := true
	for changed {
		changed = false
		for n := t.NumPins(); n < t.NumNodes(); n++ {
			switch t.Degree(n) {
			case 1:
				nb := t.Neighbors(n)[0]
				if err := t.RemoveEdge(graph.Edge{U: n, V: nb}); err == nil {
					changed = true
				}
			case 2:
				a, b := t.Neighbors(n)[0], t.Neighbors(n)[1]
				if a == b {
					continue
				}
				ea := graph.Edge{U: a, V: n}
				eb := graph.Edge{U: n, V: b}
				bridge := graph.Edge{U: a, V: b}.Canon()
				if t.HasEdge(bridge) || t.ZeroLength(bridge) {
					continue
				}
				if err := t.RemoveEdge(ea); err != nil {
					continue
				}
				if err := t.RemoveEdge(eb); err != nil {
					// Restore and give up on this node.
					_ = t.AddEdge(ea)
					continue
				}
				if err := t.AddEdge(bridge); err != nil {
					_ = t.AddEdge(ea)
					_ = t.AddEdge(eb)
					continue
				}
				changed = true
			}
		}
	}
}
