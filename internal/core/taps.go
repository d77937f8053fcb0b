package core

import (
	"fmt"
	"math"

	"nontree/internal/geom"
	"nontree/internal/graph"
	"nontree/internal/obs"
	"nontree/internal/scratch"
	"nontree/internal/trace"
)

// LDRGWithTaps generalizes the LDRG greedy loop toward the paper's full
// SORG formulation: besides edges between existing nodes, each iteration
// also considers *tap* candidates — a new wire from the source to a fresh
// Steiner point on an existing edge (the point of the edge's bounding box
// closest to the source), splitting that edge. The paper's SLDRG only adds
// edges among existing nodes; taps let a shortcut land mid-edge, which is
// frequently where the resistive bottleneck actually is.
//
// Each accepted tap adds one Steiner node and replaces one edge by two
// cost-neutral halves plus the new wire, so the wirelength penalty of a
// tap is exactly the new wire's length.
func LDRGWithTaps(seed *graph.Topology, opts Options) (*Result, error) {
	res, err := greedy(seed, &opts, true)
	if err != nil {
		return nil, err
	}
	return compactTapResult(res)
}

// compactTapResult drops any isolated Steiner nodes (they carry no wire)
// and remaps the recorded edges. Tap evaluation scores candidates on
// copies, so in practice the live topology has none and is kept as it is;
// compacting stays as a defensive invariant, for seeds that bring their
// own isolated Steiner nodes.
func compactTapResult(res *Result) (*Result, error) {
	t := res.Topology
	isolated := false
	for n := t.NumPins(); n < t.NumNodes(); n++ {
		isolated = isolated || t.Degree(n) == 0
	}
	if !isolated {
		return res, nil
	}
	compacted, remap := t.Compact()
	for i, e := range res.AddedEdges {
		u, v := remap[e.U], remap[e.V]
		if u < 0 || v < 0 {
			return nil, fmt.Errorf("core: tap bookkeeping lost edge %v", e)
		}
		res.AddedEdges[i] = graph.Edge{U: u, V: v}.Canon()
	}
	res.Topology = compacted
	return res, nil
}

// tapCandidates returns, for every existing edge, the tap from the source
// to the closest point of the edge's bounding box, in canonical edge order
// (the order that fixes tie-breaking), built in the storage of buf.
// Degenerate taps — reducing to plain edges (handled by bestAddition) or
// to nothing — are dropped.
func tapCandidates(t *graph.Topology, buf []tapCandidate) []tapCandidate {
	src := t.Point(0)
	out := buf[:0]
	for u := 0; u < t.NumNodes(); u++ {
		for _, v := range t.Neighbors(u) {
			if v < u {
				continue
			}
			a, b := t.Point(u), t.Point(v)
			p := geom.Point{
				X: clampF(src.X, math.Min(a.X, b.X), math.Max(a.X, b.X)),
				Y: clampF(src.Y, math.Min(a.Y, b.Y), math.Max(a.Y, b.Y)),
			}
			if p.Eq(a) || p.Eq(b) || p.Eq(src) {
				continue
			}
			out = append(out, tapCandidate{edge: graph.Edge{U: u, V: v}, point: p})
		}
	}
	return out
}

// tapCandidate is one mid-edge tap considered by LDRGWithTaps.
type tapCandidate struct {
	edge  graph.Edge
	point geom.Point
}

// bestTap scans every tap candidate and returns the winner, if one
// improves on cur by the threshold. Taps carry no pruning bound: the edge
// split redistributes capacitance in a way that admits no cheap one-sided
// estimate, so every candidate is probed, though under MaxDelayObjective
// a probe may stop early (see sweep.go, rule 4).
func bestTap(t *graph.Topology, cur float64, sweep int, eng *sweepEngine) (winner, bool, error) {
	cands := tapCandidates(t, eng.w.taps)
	eng.w.taps = cands
	eng.rec.Add(obs.CtrTapCandidates, int64(len(cands)))
	eng.tr.Emit(trace.Event{Kind: trace.KindSweepStart, Sweep: sweep, Tap: true, N: int64(len(cands))})
	return eng.scan(t, sweep, cur, candidates{
		n: len(cands),
		full: func(i int, t *graph.Topology) (float64, error) {
			return scoreTapped(t, eng, cands[i].edge, cands[i].point)
		},
		probe: func(i int) ([]float64, error) {
			delays, err := eng.inc.WithTap(cands[i].edge, cands[i].point)
			if err != nil {
				return nil, fmt.Errorf("core: incremental tap on %v: %w", cands[i].edge, err)
			}
			return delays, nil
		},
		probeMax: func(i int, cutoff float64) (float64, error) {
			val, err := eng.inc.MaxWithTap(cands[i].edge, cands[i].point, cutoff)
			if err != nil {
				return 0, fmt.Errorf("core: incremental tap on %v: %w", cands[i].edge, err)
			}
			return val, nil
		},
		event: func(i int, ev *trace.Event) {
			c := cands[i]
			ev.U, ev.V, ev.Tap, ev.X, ev.Y = c.edge.U, c.edge.V, true, c.point.X, c.point.Y
		},
	})
}

// scoreTapped scores base with edge e split at p and the source wired to
// the split point. base itself is never modified: the tap is applied to a
// copy of base in a topology taken from tappedScratch, so concurrent
// callers sharing base are safe and no evaluation sees another
// candidate's leftover Steiner node. (Cheaper than restore: Topology has
// no node removal, and a copy costs far less than the solve that
// follows.) The copy's Steiner node takes the index applyTap gives it on
// base, so an incremental re-solve's solution fits base once the tap is
// committed.
func scoreTapped(base *graph.Topology, eng *sweepEngine, e graph.Edge, p geom.Point) (float64, error) {
	c := tappedScratch.Get()
	defer tappedScratch.Put(c)
	c.CopyFrom(base)
	s := c.AddSteinerNode(p)
	if err := c.RemoveEdge(e); err != nil {
		return 0, err
	}
	for _, ne := range []graph.Edge{{U: e.U, V: s}, {U: s, V: e.V}, {U: 0, V: s}} {
		if err := c.AddEdge(ne); err != nil {
			return 0, fmt.Errorf("core: tap edge %v: %w", ne, err)
		}
	}
	val, err := eng.score(c, nil)
	if err != nil {
		return 0, fmt.Errorf("core: evaluating tap on %v: %w", e, err)
	}
	return val, nil
}

// tappedScratch holds the idle topologies scoreTapped applies taps in.
var tappedScratch = scratch.New[graph.Topology]()

// applyTap commits a tap permanently and returns the new source wire.
func applyTap(t *graph.Topology, e graph.Edge, p geom.Point) (graph.Edge, error) {
	s := t.AddSteinerNode(p)
	if err := t.RemoveEdge(e); err != nil {
		return graph.Edge{}, err
	}
	for _, ne := range [](graph.Edge){{U: e.U, V: s}, {U: s, V: e.V}, {U: 0, V: s}} {
		if err := t.AddEdge(ne); err != nil {
			return graph.Edge{}, fmt.Errorf("core: committing tap: %w", err)
		}
	}
	return graph.Edge{U: 0, V: s}.Canon(), nil
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
