package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"nontree/internal/elmore"
	"nontree/internal/geom"
	"nontree/internal/graph"
	"nontree/internal/obs"
	"nontree/internal/rc"
	"nontree/internal/trace"
)

// One candidate scan serves every greedy sweep. LDRG and SLDRG edge
// additions, LDRGWithTaps's source taps and WSORG's widenings (paper Figs.
// 4 and 6, §5.2) all take the same step: score every candidate
// modification of the current routing, then keep the best one if it beats
// the acceptance threshold. sweepEngine.scan is that step, written once;
// each candidate kind describes itself with a candidates value. Four rules
// make the decision independent of how the candidates were scored:
//
//  1. Isolation. Full-solve scoring always runs on the worker pool
//     (runSweep); Workers: 1 is a pool of one. Every worker scores on its
//     own Topology clone, so no candidate sees another's modification and
//     the live topology is never touched. Oracles must therefore be safe
//     for concurrent SinkDelays calls (see DelayOracle).
//  2. Deterministic reduction. Outcomes are recorded by candidate index and
//     reduced in canonical candidate order once the scan is complete: the
//     winner is the first strict minimum below the threshold, whatever the
//     goroutine scheduling. The candidate events are emitted from the
//     calling goroutine, in canonical order, once scoring and any
//     re-solves are done, so traces are byte-identical at any Workers
//     value and a sweep that fails emits no candidate events at all.
//  3. Selection only. Incremental scoring, used exactly when the oracle
//     implements IncrementalScorer, scans sequentially, because the
//     evaluator's column caches are stateful, and its values only rank the
//     candidates. The leader is then re-scored by a full solve, together
//     with any candidate within nearTie of it: the scorer's Solve, whose
//     delays equal the oracle's SinkDelays bit for bit. So committed
//     objectives are bit-identical to a full-solve sweep's, and so are
//     tie-breaks while incremental values stay within nearTie of the full
//     ones. The winner's solution travels with it, and the evaluator
//     adopts it once the winner is committed, so each accepted winner is
//     factored once.
//  4. Sound pruning. An incremental candidate is skipped only when a proved
//     lower bound on its objective cannot undercut the threshold, with
//     nearTie to spare. Only widenings carry a bound. The test-only pruning
//     audit (Options.auditPruning) re-scores every pruned candidate to
//     certify that none would have been selected.

// candidates describes one sweep's candidate set to the scan. Candidates
// are indexed 0..n-1 in canonical order, the order that fixes tie-breaking.
type candidates struct {
	n int
	// full scores candidate i with one sweepEngine.score of t modified by
	// it and leaves t as it was. It runs on worker clones, and on the live
	// topology for the incremental leaders' re-solves.
	full func(i int, t *graph.Topology) (float64, error)
	// probe returns candidate i's delays from the incremental evaluator.
	probe func(i int) ([]float64, error)
	// bound returns an upper bound on how much candidate i can improve any
	// node's delay; nil disables pruning.
	bound func(i int) float64
	// event returns candidate i's identity fields: U/V, Tap/X/Y and Width.
	event func(i int) trace.Event
}

// outcome is one candidate's result in a sweep.
type outcome struct {
	// val is the objective, or the proved lower bound when pruned.
	val    float64
	pruned bool
	// resolved marks an incremental candidate re-scored by a full solve.
	resolved bool
}

// nearTie bounds, relative to the objective, how far an incremental value
// may lie from the full solve of the same candidate. It is an empirical
// margin, not a proved one: over sampled edge, tap and widening candidates
// on seeded nets of 10–1024 pins (1024 is the largest net the simulator
// accepts), the largest gap measured is 8e-13. The scan widens its
// re-solve and pruning comparisons by this much, so within that range
// rounding cannot make it choose differently from a full-solve sweep.
// H1's single-probe pre-screen does not go through the scan and is not
// widened. nearTie must stay well below minImprovement.
const nearTie = 1e-10

// winner is a sweep's selected candidate: its edge_accepted fields and,
// in incremental mode, the solution of its re-solve, which the evaluator
// adopts once the candidate is committed.
type winner struct {
	ev  trace.Event
	sol *elmore.Solution
}

// sweepEngine carries one run's sweep state: how candidates are scored, and
// where evaluations are counted and decisions traced.
type sweepEngine struct {
	// inc is the incremental evaluator, and scorer the oracle that made
	// it; a nil inc scores every candidate with a full solve on the worker
	// pool.
	inc    *elmore.Incremental
	scorer IncrementalScorer
	oracle DelayOracle
	// staged is the solution of the latest incremental re-solve.
	staged *elmore.Solution
	// factor converts per-node improvement bounds to objective bounds;
	// prune gates the bound checks (false = score every candidate).
	factor float64
	prune  bool
	// audit re-scores pruned candidates after the scan
	// (Options.auditPruning).
	audit bool

	obj     Objective
	workers int
	evals   *int // the run's Evaluations
	rec     obs.Recorder
	tr      trace.Tracer
	outs    []outcome // reused across sweeps
}

// newSweepEngine prepares the sweeps of one run over t and returns t's
// delays, counted as one evaluation. Candidates are scored incrementally
// when the oracle implements IncrementalScorer, and t's delays are then
// the evaluator's base delays, which equal the oracle's SinkDelays bit for
// bit, so t is factored once. Any other oracle scores candidates with full
// solves and t with one SinkDelays call.
func newSweepEngine(t *graph.Topology, opts *Options, obj Objective, evals *int) (*sweepEngine, []float64, error) {
	eng := &sweepEngine{oracle: opts.Oracle, obj: obj, workers: opts.workers(), evals: evals, rec: opts.obs(), tr: opts.trace()}
	var delays []float64
	if is, ok := opts.Oracle.(IncrementalScorer); ok {
		inc, err := is.NewIncrementalSweep(t, opts.Width)
		if err != nil {
			return nil, nil, fmt.Errorf("core: scoring seed topology: %w", err)
		}
		inc.Obs = opts.Obs
		eng.inc, eng.scorer, delays = inc, is, inc.BaseDelays()
		eng.factor, eng.prune = pruningFactor(obj)
		eng.audit = opts.auditPruning
	} else {
		if opts.auditPruning {
			return nil, nil, fmt.Errorf("core: the pruning audit needs an incremental oracle, %s has no support", opts.Oracle.Name())
		}
		var err error
		if delays, err = opts.Oracle.SinkDelays(t, opts.Width); err != nil {
			return nil, nil, fmt.Errorf("core: scoring seed topology: %w", err)
		}
	}
	eng.count(1)
	return eng, delays, nil
}

// solve returns t's delays under width from one full solve: through the
// scorer in incremental mode, with the solution for the evaluator to
// adopt, counted as an incremental factorization; otherwise through the
// oracle, with a nil solution, safe on the worker pool.
func (eng *sweepEngine) solve(t *graph.Topology, width rc.WidthFunc) ([]float64, *elmore.Solution, error) {
	if eng.inc == nil {
		delays, err := eng.oracle.SinkDelays(t, width)
		return delays, nil, err
	}
	sol, err := eng.scorer.Solve(t, width)
	if err != nil {
		return nil, nil, err
	}
	eng.rec.Add(obs.CtrIncrementalFactorizations, 1)
	return sol.Delays(), sol, nil
}

// score is the objective of t under width from one solve. An incremental
// re-solve's solution is staged in eng.staged; pool workers, which never
// have one, write nothing.
func (eng *sweepEngine) score(t *graph.Topology, width rc.WidthFunc) (float64, error) {
	delays, sol, err := eng.solve(t, width)
	if err != nil {
		return 0, err
	}
	if sol != nil {
		eng.staged = sol
	}
	return eng.obj.Eval(delays, t.NumPins())
}

// adopt installs a committed winner's solution as the evaluator's base
// state, starting a new epoch; a no-op for full-solve scoring.
func (eng *sweepEngine) adopt(sol *elmore.Solution) error {
	if eng.inc == nil {
		return nil
	}
	return eng.inc.Adopt(sol)
}

func (eng *sweepEngine) count(evals int) {
	*eng.evals += evals
	eng.rec.Add(obs.CtrOracleEvaluations, int64(evals))
}

// scan runs one greedy sweep over c from the current objective cur. It
// returns the winner: its identity fields (see candidates.event) with
// Sweep, Before = cur and After = its full-solve objective, and in
// incremental mode its solution. ok is false when no candidate beats the
// threshold; an edge_rejected event then names the closest one.
func (eng *sweepEngine) scan(t *graph.Topology, sweep int, cur float64, c candidates) (_ winner, ok bool, _ error) {
	threshold := cur * (1 - minImprovement)
	if cur < threshold {
		threshold = cur // a negative objective: never accept a worsening
	}
	if cap(eng.outs) < c.n {
		eng.outs = make([]outcome, c.n)
	}
	outs := eng.outs[:c.n]
	if eng.inc == nil {
		evals, err := runSweep(t, eng.workers, outs, eng.rec, c.full)
		eng.count(evals)
		if err != nil {
			return winner{}, false, err
		}
	} else {
		// The probes' counts land before any error surfaces.
		err := eng.probeAll(t.NumPins(), sweep, cur, threshold, outs, c)
		eng.inc.Flush()
		if err != nil {
			return winner{}, false, err
		}
	}

	// The winner is the first strict minimum among the candidates below
	// the threshold.
	best, val := -1, math.Inf(1)
	var sol *elmore.Solution   // the best's solution, in incremental mode
	first, firstVal := -1, 0.0 // the first re-solved candidate
	if eng.inc == nil {
		for i, o := range outs {
			if o.val < threshold && o.val < val {
				best, val = i, o.val
			}
		}
	} else {
		// Incremental values only rank the candidates; full solves decide.
		// Candidates are re-solved in order of their optimistic value (the
		// incremental value lowered by nearTie) until none is left that
		// could beat the best full value below the threshold, or tie it
		// from an earlier index. Near-ties thus fall exactly as in a
		// full-solve sweep, and usually only the winner is re-solved.
		for {
			u, uLo := -1, math.Inf(1)
			for i, o := range outs {
				lo := o.val - nearTie*math.Abs(o.val)
				if o.pruned || o.resolved || lo >= threshold {
					continue
				}
				if lo < uLo {
					u, uLo = i, lo
				}
			}
			if u < 0 || uLo > val {
				break
			}
			v, err := c.full(u, t)
			if err != nil {
				return winner{}, false, err
			}
			eng.count(1)
			outs[u].resolved = true
			if first < 0 {
				first, firstVal = u, v
			}
			if v < threshold && (v < val || (v <= val && u < best)) {
				best, val, sol = u, v, eng.staged
			}
		}
	}

	// Scoring and re-solves are done: a sweep that failed has returned
	// before this point, so it leaves no candidate events. An untraced run
	// builds none.
	minIdx, minVal := -1, math.Inf(1)
	low, lowLB := -1, math.Inf(1) // the most promising pruned candidate
	var pruned int64
	_, untraced := eng.tr.(trace.Nop)
	for i, o := range outs {
		kind := trace.KindCandidateScored
		if o.pruned {
			kind = trace.KindCandidatePruned
			pruned++
			if o.val < lowLB {
				low, lowLB = i, o.val
			}
		} else if o.val < minVal {
			minIdx, minVal = i, o.val
		}
		if untraced {
			continue
		}
		ev := c.event(i)
		ev.Kind, ev.Sweep, ev.Index, ev.Value = kind, sweep, i, o.val
		if o.pruned {
			ev.Before = threshold
		}
		eng.tr.Emit(ev)
	}
	if pruned > 0 {
		eng.rec.Add(obs.CtrCandidatesPruned, pruned)
	}

	if best < 0 {
		switch {
		case first >= 0:
			eng.reject(c, sweep, first, firstVal, cur)
		case minIdx >= 0:
			eng.reject(c, sweep, minIdx, minVal, cur)
		case low >= 0:
			// Every candidate was pruned: the best proved bound documents
			// why the sweep converged.
			eng.reject(c, sweep, low, lowLB, cur)
		}
		return winner{}, false, nil
	}
	ev := c.event(best)
	ev.Sweep, ev.Before, ev.After = sweep, cur, val
	return winner{ev, sol}, true, nil
}

func (eng *sweepEngine) reject(c candidates, sweep, i int, val, cur float64) {
	ev := c.event(i)
	ev.Kind, ev.Sweep, ev.Value, ev.Before, ev.Reason =
		trace.KindEdgeRejected, sweep, val, cur, trace.ReasonNoImprovement
	eng.tr.Emit(ev)
}

// probeAll scores outs incrementally in canonical order. A candidate is
// pruned when its proved lower bound cannot undercut the threshold, with
// nearTie to spare, so the pruned set is deterministic. With the audit on,
// every pruned candidate is then probed anyway, and the sweep fails with
// errPruningUnsound if one breaks its bound or falls below the threshold.
func (eng *sweepEngine) probeAll(numPins, sweep int, cur, threshold float64, outs []outcome, c candidates) error {
	eval := func(i int) (float64, error) {
		delays, err := c.probe(i)
		if err != nil {
			return 0, err
		}
		return eng.obj.Eval(delays, numPins)
	}
	cutoff := threshold + nearTie*math.Abs(threshold)
	for i := range outs {
		if c.bound != nil && eng.prune {
			if lb := cur - eng.factor*c.bound(i); lb >= cutoff {
				outs[i] = outcome{val: lb, pruned: true}
				continue
			}
		}
		val, err := eval(i)
		if err != nil {
			return err
		}
		outs[i] = outcome{val: val}
	}
	if !eng.audit {
		return nil
	}
	for i, o := range outs {
		if !o.pruned {
			continue
		}
		val, err := eval(i)
		if err != nil {
			return err
		}
		ev := c.event(i)
		if val < o.val {
			return fmt.Errorf("%w: sweep %d candidate %d (%d-%d) scored %v below its proved lower bound %v",
				errPruningUnsound, sweep, i, ev.U, ev.V, val, o.val)
		}
		if val < threshold {
			return fmt.Errorf("%w: sweep %d candidate %d (%d-%d) scored %v (bound %v, threshold %v)",
				errPruningUnsound, sweep, i, ev.U, ev.V, val, o.val, threshold)
		}
	}
	return nil
}

// runSweep scores every outcome slot with full on a pool of workers
// goroutines (at most one per candidate), each on its own clone of t. It
// returns the number of successful evaluations and, if any failed, the
// error of the earliest failing candidate; after a failure the pool takes
// no new candidates. rec receives one wall-clock span per worker (a
// Timings metric, outside the determinism contract).
func runSweep(t *graph.Topology, workers int, outs []outcome, rec obs.Recorder,
	full func(i int, t *graph.Topology) (float64, error)) (int, error) {
	type tally struct {
		evals, failed int
		err           error
	}
	tallies := make([]tally, min(workers, len(outs)))
	var next atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := range tallies {
		wg.Add(1)
		go func(tl *tally) {
			defer wg.Done()
			defer obs.StartSpan(rec, obs.TimeSweepWorker).End()
			clone := t.Clone()
			for !stop.Load() {
				i := int(next.Add(1)) - 1
				if i >= len(outs) {
					return
				}
				val, err := full(i, clone)
				if err != nil {
					tl.failed, tl.err = i, err
					stop.Store(true)
					return
				}
				outs[i] = outcome{val: val}
				tl.evals++
			}
		}(&tallies[w])
	}
	wg.Wait()
	evals, failed := 0, len(outs)
	var err error
	for _, tl := range tallies {
		evals += tl.evals
		if tl.err != nil && tl.failed < failed {
			failed, err = tl.failed, tl.err
		}
	}
	return evals, err
}

// accept commits a sweep's winner to t, described by its edge_accepted
// event: the edge U–V, or with Tap set the source tap splitting U–V at
// (X, Y). The evaluator adopts the winner's solution, which is t's state
// after the commit: an edge's re-solve ran on t itself, and a tap's on a
// clone whose new Steiner node has the index applyTap gives it here. It
// extends res and emits the event with U/V naming the committed wire.
func (eng *sweepEngine) accept(t *graph.Topology, res *Result, win winner) error {
	ev := win.ev
	e := graph.Edge{U: ev.U, V: ev.V}
	if ev.Tap {
		wire, err := applyTap(t, e, geom.Point{X: ev.X, Y: ev.Y})
		if err != nil {
			return err
		}
		e = wire
		eng.rec.Add(obs.CtrTapsAccepted, 1)
	} else if err := t.AddEdge(e); err != nil {
		return fmt.Errorf("core: committing edge %v: %w", e, err)
	}
	if err := eng.adopt(win.sol); err != nil {
		return fmt.Errorf("core: adopting the solution of edge %v: %w", e, err)
	}
	res.AddedEdges = append(res.AddedEdges, e)
	res.Trace = append(res.Trace, ev.After)
	eng.rec.Add(obs.CtrAcceptedEdges, 1)
	ev.Kind, ev.U, ev.V = trace.KindEdgeAccepted, e.U, e.V
	eng.tr.Emit(ev)
	return nil
}
