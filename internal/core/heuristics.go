package core

import (
	"errors"
	"fmt"

	"nontree/internal/elmore"
	"nontree/internal/graph"
	"nontree/internal/obs"
	"nontree/internal/rc"
	"nontree/internal/trace"
)

// H1 runs the paper's first fast heuristic: "Connect n0 to the pin with the
// longest SPICE delay". One oracle evaluation finds the worst sink; the
// source is connected directly to it, and the addition is kept only if the
// measured objective improves. As the paper notes, the selection step "may
// be iterated until no further delay improvement is possible" — controlled
// here by opts.MaxAddedEdges (0 means iterate to convergence; the paper
// observes about two iterations in practice).
func H1(seed *graph.Topology, opts Options) (*Result, error) {
	if err := checkSeed(seed, &opts); err != nil {
		return nil, err
	}
	t := seed.Clone()
	obj := opts.objective()
	res := &Result{Topology: t}
	eng, delays, err := newSweepEngine(t, &opts, nil, obj, &res.Evaluations)
	if err != nil {
		return nil, err
	}
	defer eng.release()
	cur, err := obj.Eval(delays, t.NumPins())
	if err != nil {
		return nil, err
	}
	res.InitialObjective = cur
	res.Trace = append(res.Trace, cur)

	tr := opts.trace()
	for sweep := 1; ; sweep++ {
		if opts.MaxAddedEdges > 0 && len(res.AddedEdges) >= opts.MaxAddedEdges {
			break
		}
		worst, _ := elmore.ArgMaxSinkDelay(delays, t.NumPins())
		if worst < 0 {
			break
		}
		e := graph.Edge{U: 0, V: worst}.Canon()
		if t.HasEdge(e) || t.ZeroLength(e) {
			break // the worst sink is already directly connected
		}
		// H1 probes exactly one candidate per sweep: the worst sink's
		// shortcut, tried on the live topology and reverted on failure.
		tr.Emit(trace.Event{Kind: trace.KindSweepStart, Sweep: sweep, N: 1})
		if eng.inc != nil {
			// Pre-screen the probe as a rank-one perturbation: a shortcut
			// the perturbed model already rejects is never solved in full.
			// Accepted probes still go through the full solve below (whose
			// delay vector the next iteration needs anyway, and whose
			// solution the evaluator adopts), so committed objectives stay
			// identical to a full-solve run's.
			probe, err := eng.inc.WithEdge(e)
			eng.inc.Flush()
			if err != nil {
				return nil, fmt.Errorf("core: H1 probing %v: %w", e, err)
			}
			val, err := obj.Eval(probe, t.NumPins())
			if err != nil {
				return nil, err
			}
			if val >= cur*(1-minImprovement) {
				tr.Emit(trace.Event{Kind: trace.KindCandidateScored, Sweep: sweep, Index: 0,
					U: e.U, V: e.V, Value: val})
				tr.Emit(trace.Event{Kind: trace.KindEdgeRejected, Sweep: sweep,
					U: e.U, V: e.V, Value: val, Before: cur, Reason: trace.ReasonReverted})
				break
			}
		}
		if err := t.AddEdge(e); err != nil {
			return nil, fmt.Errorf("core: H1 adding %v: %w", e, err)
		}
		newDelays, sol, err := eng.solve(t, nil)
		if err != nil {
			return nil, fmt.Errorf("core: H1 evaluating %v: %w", e, err)
		}
		res.Evaluations++
		opts.obs().Add(obs.CtrOracleEvaluations, 1)
		val, err := obj.Eval(newDelays, t.NumPins())
		if err != nil {
			return nil, err
		}
		tr.Emit(trace.Event{Kind: trace.KindCandidateScored, Sweep: sweep, Index: 0,
			U: e.U, V: e.V, Value: val})
		if val >= cur*(1-minImprovement) {
			// Not an improvement: revert and stop.
			if err := t.RemoveEdge(e); err != nil {
				return nil, err
			}
			tr.Emit(trace.Event{Kind: trace.KindEdgeRejected, Sweep: sweep,
				U: e.U, V: e.V, Value: val, Before: cur, Reason: trace.ReasonReverted})
			break
		}
		if err := eng.adopt(sol); err != nil {
			return nil, fmt.Errorf("core: H1 adopting the solution of %v: %w", e, err)
		}
		res.AddedEdges = append(res.AddedEdges, e)
		res.Trace = append(res.Trace, val)
		opts.obs().Add(obs.CtrAcceptedEdges, 1)
		tr.Emit(trace.Event{Kind: trace.KindEdgeAccepted, Sweep: sweep,
			U: e.U, V: e.V, Before: cur, After: val})
		cur = val
		delays = newDelays
	}

	res.FinalObjective = cur
	return res, nil
}

// treeElmoreDelays evaluates Elmore delays of a tree seed — the selection
// signal for H2 and H3, which the paper restricts to a single application
// because "Elmore delay is only defined for trees, not arbitrary graphs".
// Its lumped network comes from shared slots, and TreeDelays allocates
// only the delays it returns.
func treeElmoreDelays(seed *graph.Topology, params rc.Params) ([]float64, error) {
	l := lumps.Get()
	defer lumps.Put(l)
	if err := rc.Lump(l, seed, params, nil); err != nil {
		return nil, err
	}
	return elmore.TreeDelays(seed, l)
}

// H2 runs the paper's second heuristic: "Connect n0 to the pin with the
// longest Elmore delay". No simulator call is made for selection; the edge
// is added unconditionally (matching the paper's Table 5, where H2's
// all-cases averages include nets it made worse). The Result's objective
// fields are measured with opts.Oracle so callers can report honest
// delays; pass ElmoreOracle to keep the whole run simulator-free.
//
// The seed must be a tree (classically the MST).
func H2(seed *graph.Topology, params rc.Params, opts Options) (*Result, error) {
	return elmoreSelectedAddition(seed, params, opts, func(delays []float64, t *graph.Topology) (int, error) {
		worst, _ := elmore.ArgMaxSinkDelay(delays, t.NumPins())
		return worst, nil
	})
}

// H3 runs the paper's third heuristic: "Connect n0 to the pin with the
// largest value of (pathlength × Elmore) / length-of-new-edge". Like H2 it
// needs no simulator and adds the edge unconditionally; unlike H2 its score
// discounts sinks whose shortcut wire would be long, trading delay
// improvement against wirelength.
func H3(seed *graph.Topology, params rc.Params, opts Options) (*Result, error) {
	return elmoreSelectedAddition(seed, params, opts, func(delays []float64, t *graph.Topology) (int, error) {
		// The seed is a tree: root it once and walk each sink's path.
		parents, err := t.RootAt(0)
		if err != nil {
			return -1, err
		}
		best, bestScore := -1, -1.0
		for sink := 1; sink < t.NumPins(); sink++ {
			newLen := t.EdgeLength(graph.Edge{U: 0, V: sink})
			if t.ZeroLength(graph.Edge{U: 0, V: sink}) || t.HasEdge(graph.Edge{U: 0, V: sink}) {
				continue
			}
			pathLen, err := t.SourcePathLength(parents, sink)
			if err != nil {
				return -1, err
			}
			score := pathLen * delays[sink] / newLen
			if score > bestScore {
				bestScore = score
				best = sink
			}
		}
		return best, nil
	})
}

// elmoreSelectedAddition implements the shared skeleton of H2 and H3:
// select a sink from the tree's Elmore delays, connect the source to it,
// and report objective values via opts.Oracle.
func elmoreSelectedAddition(seed *graph.Topology, params rc.Params, opts Options,
	select_ func([]float64, *graph.Topology) (int, error)) (*Result, error) {
	if err := checkSeed(seed, &opts); err != nil {
		return nil, err
	}
	if !seed.IsTree() {
		return nil, errors.New("core: H2/H3 require a tree seed (Elmore selection is tree-only)")
	}
	t := seed.Clone()
	obj := opts.objective()
	res := &Result{Topology: t}

	cur, err := score(t, &opts, obj, &res.Evaluations)
	if err != nil {
		return nil, fmt.Errorf("core: H2/H3 seed evaluation: %w", err)
	}
	res.InitialObjective = cur
	res.Trace = append(res.Trace, cur)

	elmoreDelays, err := treeElmoreDelays(seed, params)
	if err != nil {
		return nil, fmt.Errorf("core: H2/H3 Elmore selection: %w", err)
	}
	pick, err := select_(elmoreDelays, t)
	if err != nil {
		return nil, err
	}
	if pick >= 1 {
		e := graph.Edge{U: 0, V: pick}.Canon()
		if !t.HasEdge(e) && t.EdgeLength(e) > 0 {
			tr := opts.trace()
			tr.Emit(trace.Event{Kind: trace.KindSweepStart, Sweep: 1, N: 1})
			if err := t.AddEdge(e); err != nil {
				return nil, fmt.Errorf("core: H2/H3 adding %v: %w", e, err)
			}
			val, err := score(t, &opts, obj, &res.Evaluations)
			if err != nil {
				return nil, fmt.Errorf("core: H2/H3 final evaluation: %w", err)
			}
			res.AddedEdges = append(res.AddedEdges, e)
			res.Trace = append(res.Trace, val)
			opts.obs().Add(obs.CtrAcceptedEdges, 1)
			tr.Emit(trace.Event{Kind: trace.KindCandidateScored, Sweep: 1, Index: 0,
				U: e.U, V: e.V, Value: val})
			tr.Emit(trace.Event{Kind: trace.KindEdgeAccepted, Sweep: 1,
				U: e.U, V: e.V, Before: cur, After: val})
			cur = val
		}
	}

	res.FinalObjective = cur
	return res, nil
}
