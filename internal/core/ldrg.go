package core

import (
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"strings"

	"nontree/internal/graph"
	"nontree/internal/obs"
	"nontree/internal/trace"
)

// Options configures the LDRG greedy loop and the heuristics.
type Options struct {
	// Oracle estimates delays; required.
	Oracle DelayOracle
	// Objective scores a topology; nil selects MaxDelayObjective (the ORG
	// problem). Supplying WeightedDelayObjective yields the CSORG variant.
	Objective Objective
	// MaxAddedEdges bounds how many edges the greedy loop may add; 0 means
	// run to convergence (the paper's termination: "when no further delay
	// improvement is possible").
	MaxAddedEdges int
	// CandidateFilter, when non-nil, vetoes candidate edges before they
	// are evaluated: return false to exclude the edge. The topology passed
	// in is the current routing *without* the candidate. Use it for
	// routability constraints — e.g. embed.PlanarFilter rejects edges
	// whose rectilinear embedding would cross existing wires.
	CandidateFilter func(t *graph.Topology, e graph.Edge) bool
	// Workers bounds the goroutines scoring candidates concurrently in each
	// full-solve sweep: 0 selects runtime.GOMAXPROCS(0), and 1 is a pool of
	// one. Any value yields byte-identical Results and traces: every
	// candidate is scored on a worker-private Topology clone, and the
	// winner is chosen after the pool joins by (objective, then canonical
	// candidate order). Oracles must be safe for concurrent SinkDelays
	// calls (all oracles in this package are; see DelayOracle). Sweeps
	// over an oracle that implements IncrementalScorer score candidates
	// incrementally, in one sequential scan, and ignore it.
	Workers int
	// Obs receives counters and span timings from the run (nil = discard).
	// Counters and histograms are deterministic for a fixed seed at any
	// Workers value; wall-clock timings land in the recorder's Timings
	// section, which the determinism guarantee excludes (DESIGN.md §10).
	Obs obs.Recorder
	// Trace receives the structured decision trace of the run (nil =
	// discard): sweep starts, per-candidate scores, accepted and rejected
	// edges. A sweep emits its candidate events from the calling goroutine
	// once the scan is complete, in canonical candidate order (none if the
	// sweep fails), so for a fixed seed the deterministic event fields are
	// byte-identical at any Workers value (DESIGN.md §11).
	Trace trace.Tracer

	// auditPruning re-scores every pruned candidate after each incremental
	// sweep and fails the run with errPruningUnsound if one would have been
	// selected (see sweepEngine.probeAll). Tests set it to certify the
	// pruning bounds; it never changes a decision.
	auditPruning bool
}

// minImprovement is the minimum relative objective improvement a
// modification must deliver to be accepted; it keeps floating-point noise
// from accepting meaningless edges and widenings.
const minImprovement = 1e-9

func (o *Options) objective() Objective {
	if o.Objective == nil {
		return MaxDelayObjective{}
	}
	return o.Objective
}

// workers resolves the Workers knob: 0 = one per CPU, anything below 1 is
// clamped to a pool of one.
func (o *Options) workers() int {
	if o.Workers == 0 {
		//nontree:allow nondetsource sizes the sweep pool only; the deterministic reduction makes results identical for any worker count (DESIGN.md §7)
		return runtime.GOMAXPROCS(0)
	}
	return max(o.Workers, 1)
}

func (o *Options) obs() obs.Recorder { return obs.OrNop(o.Obs) }

func (o *Options) trace() trace.Tracer { return trace.OrNop(o.Trace) }

// Result reports an algorithm run.
type Result struct {
	// Topology is the final routing graph (the seed topology is never
	// mutated; Topology is an independent copy).
	Topology *graph.Topology
	// AddedEdges lists the accepted extra edges in acceptance order.
	AddedEdges []graph.Edge
	// InitialObjective and FinalObjective are oracle scores of the seed and
	// final topologies.
	InitialObjective, FinalObjective float64
	// Trace holds the objective after the seed and after each accepted edge
	// (len == len(AddedEdges)+1).
	Trace []float64
	// Evaluations counts oracle invocations, the dominant cost.
	Evaluations int
}

// Improved reports whether the run strictly improved on the seed.
func (r *Result) Improved() bool { return r.FinalObjective < r.InitialObjective }

// Fingerprint renders the result's decision content in a canonical,
// bit-exact text form: the accepted edges, the objective trajectory as hex
// float literals, and the final topology's edge list. Two runs that made
// identical decisions produce identical fingerprints. Evaluations is
// deliberately excluded — it measures how hard the oracle worked, not what
// was decided, and differs between scoring paths by design.
func (r *Result) Fingerprint() string {
	var b strings.Builder
	b.WriteString("added=")
	for i, e := range r.AddedEdges {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d-%d", e.U, e.V)
	}
	fmt.Fprintf(&b, "\ninitial=%s\nfinal=%s\ntrace=",
		strconv.FormatFloat(r.InitialObjective, 'x', -1, 64),
		strconv.FormatFloat(r.FinalObjective, 'x', -1, 64))
	for i, v := range r.Trace {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(strconv.FormatFloat(v, 'x', -1, 64))
	}
	b.WriteString("\nedges=")
	if r.Topology != nil {
		for i, e := range r.Topology.Edges() {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%d-%d", e.U, e.V)
		}
	}
	b.WriteByte('\n')
	return b.String()
}

// errors from algorithm entry points.
var (
	ErrNilOracle   = errors.New("core: Options.Oracle must not be nil")
	ErrSeedNil     = errors.New("core: seed topology must not be nil")
	ErrSeedInvalid = errors.New("core: seed topology must be connected")
)

// LDRG runs the Low Delay Routing Graph algorithm (paper Figure 4): starting
// from the seed topology (classically the MST), repeatedly add the absent
// edge that most improves the objective, until no edge improves it.
//
// The paper's formulation evaluates t(·) with SPICE; the oracle choice in
// opts selects between that reference behaviour and the fast Elmore model.
func LDRG(seed *graph.Topology, opts Options) (*Result, error) {
	return greedy(seed, &opts, false)
}

// greedy is the loop shared by LDRG and LDRGWithTaps: each sweep scores the
// edge candidates and, with taps set, the tap candidates, and commits the
// better winner until neither improves the objective.
func greedy(seed *graph.Topology, opts *Options, taps bool) (*Result, error) {
	if err := checkSeed(seed, opts); err != nil {
		return nil, err
	}
	t := seed.Clone()
	obj := opts.objective()

	res := &Result{Topology: t}
	eng, delays, err := newSweepEngine(t, opts, nil, obj, &res.Evaluations)
	if err != nil {
		return nil, err
	}
	defer eng.release()
	cur, err := obj.Eval(delays, t.NumPins())
	if err != nil {
		return nil, fmt.Errorf("core: scoring seed topology: %w", err)
	}
	res.InitialObjective = cur
	res.Trace = append(res.Trace, cur)
	for sweep := 1; opts.MaxAddedEdges <= 0 || len(res.AddedEdges) < opts.MaxAddedEdges; sweep++ {
		win, ok, err := bestAddition(t, opts, cur, sweep, eng)
		if err != nil {
			return nil, err
		}
		if taps {
			tap, tapOK, err := bestTap(t, opts, cur, sweep, eng)
			if err != nil {
				return nil, err
			}
			if tapOK && (!ok || tap.ev.After < win.ev.After) {
				win, ok = tap, true
			}
		}
		if !ok {
			break
		}
		if err := eng.accept(t, res, win); err != nil {
			return nil, err
		}
		cur = win.ev.After
	}
	res.FinalObjective = cur
	return res, nil
}

// candidateEdges returns the absent edges the greedy sweep should evaluate,
// in canonical sorted order (the order that fixes tie-breaking), built in
// the storage of buf.
func candidateEdges(t *graph.Topology, opts *Options, buf []graph.Edge) []graph.Edge {
	absent := t.AppendAbsentEdges(buf[:0])
	out := absent[:0] // filtered in place
	for _, e := range absent {
		// Edges to isolated Steiner nodes are dead stubs: they only add
		// capacitance (or even disconnect islands). Such nodes exist while
		// LDRGWithTaps evaluates tap candidates.
		if (t.IsSteiner(e.U) && t.Degree(e.U) == 0) ||
			(t.IsSteiner(e.V) && t.Degree(e.V) == 0) {
			continue
		}
		if opts.CandidateFilter != nil && !opts.CandidateFilter(t, e) {
			continue
		}
		out = append(out, e)
	}
	return out
}

// bestAddition scans every absent edge and returns the winner, if one
// improves on cur by the threshold.
func bestAddition(t *graph.Topology, opts *Options, cur float64, sweep int, eng *sweepEngine) (winner, bool, error) {
	cands := candidateEdges(t, opts, eng.w.edges)
	eng.w.edges = cands
	eng.rec.Add(obs.CtrSweeps, 1)
	eng.rec.Add(obs.CtrSweepCandidates, int64(len(cands)))
	eng.rec.Observe(obs.HistSweepCandidates, float64(len(cands)))
	eng.tr.Emit(trace.Event{Kind: trace.KindSweepStart, Sweep: sweep, N: int64(len(cands))})
	defer obs.StartSpan(eng.rec, obs.TimeSweep).End()
	return eng.scan(t, sweep, cur, candidates{
		n: len(cands),
		full: func(i int, t *graph.Topology) (float64, error) {
			e := cands[i]
			if err := t.AddEdge(e); err != nil {
				return 0, fmt.Errorf("core: trying edge %v: %w", e, err)
			}
			val, err := eng.score(t, nil)
			rmErr := t.RemoveEdge(e)
			if err != nil {
				return 0, fmt.Errorf("core: evaluating edge %v: %w", e, err)
			}
			if rmErr != nil {
				return 0, fmt.Errorf("core: reverting edge %v: %w", e, rmErr)
			}
			return val, nil
		},
		probe: func(i int) ([]float64, error) {
			delays, err := eng.inc.WithEdge(cands[i])
			if err != nil {
				return nil, fmt.Errorf("core: incremental evaluation of %v: %w", cands[i], err)
			}
			return delays, nil
		},
		probeMax: func(i int, cutoff float64) (float64, error) {
			val, err := eng.inc.MaxWithEdge(cands[i], cutoff)
			if err != nil {
				return 0, fmt.Errorf("core: incremental evaluation of %v: %w", cands[i], err)
			}
			return val, nil
		},
		event: func(i int, ev *trace.Event) { ev.U, ev.V = cands[i].U, cands[i].V },
	})
}

func score(t *graph.Topology, opts *Options, obj Objective, evals *int) (float64, error) {
	delays, err := opts.Oracle.SinkDelays(t, nil)
	if err != nil {
		return 0, err
	}
	val, err := obj.Eval(delays, t.NumPins())
	if err != nil {
		return 0, err
	}
	*evals++
	opts.obs().Add(obs.CtrOracleEvaluations, 1)
	return val, nil
}

func checkSeed(seed *graph.Topology, opts *Options) error {
	if seed == nil {
		return ErrSeedNil
	}
	if opts.Oracle == nil {
		return ErrNilOracle
	}
	if !seed.Connected() {
		return ErrSeedInvalid
	}
	return nil
}
