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
	"nontree/internal/scratch"
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
//  4. Sound pruning. An incremental candidate is pruned only when a proved
//     lower bound on its objective shows it cannot change the decision, in
//     one of two ways. A widening is skipped before it is probed when its
//     bound cannot undercut the threshold, with nearTie to spare; only
//     widenings carry such a bound. Under MaxDelayObjective, an edge or tap
//     probe stops early once the max over the sinks it has visited exceeds
//     the scan's running minimum by earlyStopMargin: the candidate can be
//     neither the leader nor within nearTie of it, so it is never re-solved
//     and never named. The threshold stays out of that cutoff, so a sweep
//     that accepts nothing still names the candidate a full scan would. The
//     test-only pruning audit (Options.auditPruning) re-scores every pruned
//     candidate to certify that none would have been selected or
//     re-solved.

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
	// probeMax returns candidate i's max sink delay from the evaluator, or
	// a partial max above cutoff once one exceeds it (elmore.MaxWithEdge);
	// nil disables early stops.
	probeMax func(i int, cutoff float64) (float64, error)
	// bound returns an upper bound on how much candidate i can improve any
	// node's delay; nil disables pruning.
	bound func(i int) (float64, error)
	// event writes candidate i's identity fields into ev: U/V, Tap/X/Y and
	// Width. It may run under a tracer's lock, so it must only compute.
	event func(i int, ev *trace.Event)
}

// outcome is one candidate's result in a sweep.
type outcome struct {
	// val is the objective, or the proved lower bound when pruned.
	val float64
	// against indexes, for an early stop, the scored candidate whose value
	// was the running minimum the probe stopped against. An index, not the
	// value, keeps an outcome at 16 bytes; int32 holds the candidates of
	// any net the simulator accepts.
	against int32
	pruned  bool
	// stopped marks a pruned candidate whose probe stopped early; any
	// other pruned candidate was pruned against the threshold.
	stopped bool
	// resolved marks an incremental candidate re-scored by a full solve.
	resolved bool
}

// nearTie bounds, relative to the objective, how far an incremental value
// may lie from the full solve of the same candidate. It is an empirical
// margin, not a proved one: over sampled edge, tap and widening candidates
// on seeded nets of 10–1024 pins (1024 is the largest net the simulator
// accepts), the largest gap measured is 8e-13. The scan widens its
// re-solve and pruning comparisons by this much, and its early stops by
// earlyStopMargin, three times as much, so within that range rounding
// cannot make it choose, re-solve or name differently from a full-solve
// sweep. H1's single-probe pre-screen does not go through the scan and is
// not widened. nearTie must stay well below minImprovement.
const nearTie = 1e-10

// earlyStopMargin is how far, relative to the scan's running minimum m, a
// probe's partial max must rise above m before the probe stops early. A
// candidate that stops has an incremental value v > m + 3·nearTie·|m|, so
// its optimistic value v − nearTie·|v| still exceeds m + nearTie·|m|, the
// highest the leader's full solve can lie. One nearTie covers the stopped
// candidate's own rounding, one the leader's, and the third leaves room
// to spare: with a margin of one, a stopped candidate's optimistic value
// could fall just below the winner's full value, so a full scan would have
// re-solved it, and Evaluations would differ.
const earlyStopMargin = 3 * nearTie

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
	// base, best and prev are the solutions still needed, which spare
	// never hands out: the evaluator's adopted base state, the running
	// best of the current scan, and the best of the scan before it, which
	// greedy may yet commit instead of the current scan's.
	base, best, prev *elmore.Solution
	// factor converts per-node improvement bounds to objective bounds;
	// prune gates the bound checks (false = score every candidate).
	factor float64
	prune  bool
	// audit re-scores pruned candidates after the scan
	// (Options.auditPruning).
	audit bool
	// stop enables early stops: the objective is MaxDelayObjective, whose
	// value the evaluator's cutoff probes compute.
	stop bool

	obj     Objective
	workers int
	evals   *int // the run's Evaluations
	rec     obs.Recorder
	tr      trace.Tracer
	// traced is false when tr discards every event, so a scan builds no
	// batch of candidate events for it.
	traced bool
	// ev is where candidates.event writes a winner's or a rejection's
	// identity fields: a pointer into the engine, not to a local that
	// would escape to the heap through the function value.
	ev trace.Event
	w  *sweepWork
}

// sweepWork is the storage one run reuses across its epochs and sweeps:
// the evaluator's workspace, the full solves, the candidate lists and the
// outcome slots. A run takes it from sweepScratch in newSweepEngine and
// returns it in release, so a warm caller, such as the daemon routing
// request after request, allocates none of it per run; storage grows only
// when a net outgrows every one before it.
type sweepWork struct {
	inc elmore.Workspace
	// sols holds the incremental mode's full solves: the seed's, and each
	// re-solve's, handed out by spare. At most three are needed at once,
	// so a fourth is always free.
	sols  [4]elmore.Solution
	edges []graph.Edge
	taps  []tapCandidate
	outs  []outcome
}

var sweepScratch = scratch.New[sweepWork]()

// newSweepEngine prepares the sweeps of one run over t under width (nil =
// unit widths; only WireSize passes one) and returns t's delays, counted as
// one evaluation. Candidates are scored incrementally when the oracle
// implements IncrementalScorer, and t's delays are then the evaluator's
// base delays, which equal the oracle's SinkDelays bit for bit, so t is
// factored once. Any other oracle scores candidates with full solves and t
// with one SinkDelays call.
//
// The engine holds the run's sweepWork; the caller must release it once
// the run ends, on every return path.
func newSweepEngine(t *graph.Topology, opts *Options, width rc.WidthFunc, obj Objective, evals *int) (_ *sweepEngine, _ []float64, rerr error) {
	eng := &sweepEngine{oracle: opts.Oracle, obj: obj, workers: opts.workers(), evals: evals, rec: opts.obs(), tr: opts.trace(),
		traced: opts.Trace != nil, w: sweepScratch.Get()}
	defer func() {
		if rerr != nil {
			eng.release()
		}
	}()
	var delays []float64
	if is, ok := opts.Oracle.(IncrementalScorer); ok {
		sol := eng.spare()
		inc, err := is.NewIncrementalSweep(&eng.w.inc, sol, t, width)
		if err != nil {
			return nil, nil, fmt.Errorf("core: scoring seed topology: %w", err)
		}
		inc.Obs = opts.Obs
		eng.inc, eng.scorer, eng.base, delays = inc, is, sol, sol.Delays()
		eng.factor, eng.prune = pruningFactor(obj)
		eng.audit = opts.auditPruning
		_, eng.stop = obj.(MaxDelayObjective)
	} else {
		if opts.auditPruning {
			return nil, nil, fmt.Errorf("core: the pruning audit needs an incremental oracle, %s has no support", opts.Oracle.Name())
		}
		var err error
		if delays, err = opts.Oracle.SinkDelays(t, width); err != nil {
			return nil, nil, fmt.Errorf("core: scoring seed topology: %w", err)
		}
	}
	eng.count(1)
	return eng, delays, nil
}

// release returns the run's sweepWork for reuse. The engine, its
// evaluator and every slice they handed out must not be used afterwards.
func (eng *sweepEngine) release() {
	sweepScratch.Put(eng.w)
	eng.w, eng.inc = nil, nil
}

// spare returns the storage for the next full solve in incremental mode:
// a solution that is none of base, best and prev.
func (eng *sweepEngine) spare() *elmore.Solution {
	for i := range eng.w.sols {
		if s := &eng.w.sols[i]; s != eng.base && s != eng.best && s != eng.prev {
			return s
		}
	}
	panic("core: every solution of the run is in use")
}

// solve returns t's delays under width from one full solve: through the
// scorer in incremental mode, into a spare solution for the evaluator to
// adopt, counted as an incremental factorization; otherwise through the
// oracle, with a nil solution, safe on the worker pool. The solution
// stays valid until the next solve unless it becomes the scan's best or
// is adopted.
func (eng *sweepEngine) solve(t *graph.Topology, width rc.WidthFunc) ([]float64, *elmore.Solution, error) {
	if eng.inc == nil {
		delays, err := eng.oracle.SinkDelays(t, width)
		return delays, nil, err
	}
	sol := eng.spare()
	if err := eng.scorer.Solve(sol, t, width); err != nil {
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
	if err := eng.inc.Adopt(sol); err != nil {
		return err
	}
	eng.base = sol
	return nil
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
	if cap(eng.w.outs) < c.n {
		eng.w.outs = make([]outcome, c.n)
	}
	outs := eng.w.outs[:c.n]
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
	// the threshold. In incremental mode eng.best holds its solution, and
	// the previous scan's stays in eng.prev.
	best, val := -1, math.Inf(1)
	eng.prev, eng.best = eng.best, nil
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
				best, val, eng.best = u, v, eng.staged
			}
		}
	}

	// Scoring and re-solves are done: a sweep that failed has returned
	// before this point, so it leaves no candidate events. They are
	// emitted as one batch, which an untraced run never builds: its
	// closure is not even made.
	minIdx, minVal := -1, math.Inf(1)
	low, lowLB := -1, math.Inf(1) // the most promising pruned candidate
	var pruned int64
	for i, o := range outs {
		if o.pruned {
			pruned++
			if o.val < lowLB {
				low, lowLB = i, o.val
			}
		} else if o.val < minVal {
			minIdx, minVal = i, o.val
		}
	}
	if eng.traced {
		eng.tr.EmitEach(len(outs), func(i int, ev *trace.Event) {
			o := outs[i]
			c.event(i, ev)
			ev.Kind, ev.Sweep, ev.Index, ev.Value = trace.KindCandidateScored, sweep, i, o.val
			if o.pruned {
				ev.Kind, ev.Before = trace.KindCandidatePruned, threshold
				if o.stopped {
					ev.Before = outs[o.against].val
				}
			}
		})
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
	return winner{eng.event(c, best, trace.Event{Sweep: sweep, Before: cur, After: val}), eng.best}, true, nil
}

func (eng *sweepEngine) reject(c candidates, sweep, i int, val, cur float64) {
	eng.tr.Emit(eng.event(c, i, trace.Event{Kind: trace.KindEdgeRejected, Sweep: sweep, Value: val, Before: cur, Reason: trace.ReasonNoImprovement}))
}

// event returns ev with candidate i's identity fields filled in by
// c.event, written in the engine's own event.
func (eng *sweepEngine) event(c candidates, i int, ev trace.Event) trace.Event {
	eng.ev = ev
	c.event(i, &eng.ev)
	return eng.ev
}

// probeAll scores outs incrementally in canonical order. A candidate is
// pruned when its proved lower bound cannot undercut the threshold, with
// nearTie to spare, or, with early stops on, when its cutoff probe stops
// above the running minimum of the values scored before it by
// earlyStopMargin. Both depend only on the candidates and their order, so
// the pruned set is deterministic. With the audit on, every pruned
// candidate is then probed in full, and the sweep fails with
// errPruningUnsound if one breaks its bound, falls below the threshold it
// was pruned against, or after an early stop comes within nearTie of the
// running minimum it was stopped against.
func (eng *sweepEngine) probeAll(numPins, sweep int, cur, threshold float64, outs []outcome, c candidates) error {
	eval := func(i int) (float64, error) {
		delays, err := c.probe(i)
		if err != nil {
			return 0, err
		}
		return eng.obj.Eval(delays, numPins)
	}
	cutoff := threshold + nearTie*math.Abs(threshold)
	stop := eng.stop && c.probeMax != nil
	runMin, minIdx := math.Inf(1), int32(-1)
	for i := range outs {
		if c.bound != nil && eng.prune {
			b, err := c.bound(i)
			if err != nil {
				return err
			}
			if lb := cur - eng.factor*b; lb >= cutoff {
				outs[i] = outcome{val: lb, pruned: true}
				continue
			}
		}
		if !stop {
			val, err := eval(i)
			if err != nil {
				return err
			}
			outs[i] = outcome{val: val}
			continue
		}
		limit := runMin + earlyStopMargin*math.Abs(runMin)
		val, err := c.probeMax(i, limit)
		if err != nil {
			return err
		}
		if val > limit {
			outs[i] = outcome{val: val, against: minIdx, pruned: true, stopped: true}
			continue
		}
		outs[i] = outcome{val: val}
		if val < runMin {
			runMin, minIdx = val, int32(i)
		}
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
		var ev trace.Event
		c.event(i, &ev)
		if val < o.val {
			return fmt.Errorf("%w: sweep %d candidate %d (%d-%d) scored %v below its proved lower bound %v",
				errPruningUnsound, sweep, i, ev.U, ev.V, val, o.val)
		}
		if o.stopped {
			// The candidate's optimistic value must clear the highest value
			// the running minimum's full solve can take, so no full-solve
			// scan would re-solve it, let alone select it.
			if m := outs[o.against].val; val-nearTie*math.Abs(val) <= m+nearTie*math.Abs(m) {
				return fmt.Errorf("%w: sweep %d candidate %d (%d-%d) scored %v, within nearTie of the running minimum %v it was stopped against",
					errPruningUnsound, sweep, i, ev.U, ev.V, val, m)
			}
		} else if val < threshold {
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
// copy whose new Steiner node has the index applyTap gives it here. It
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
