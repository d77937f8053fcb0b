package obs

// Canonical metric names. Instrumented code always refers to these
// constants, so the catalog below is complete by construction; the
// benchmark harness preregisters all of them, which freezes the snapshot
// key set independently of which code paths a particular run exercises
// (the schema-stability guarantee of BENCH_*.json).
//
// Naming convention: <package>.<subsystem>.<quantity>, snake_case leaves.
// DESIGN.md §10 documents the exact meaning and determinism status of each.
const (
	// --- package core: greedy sweeps ---

	// CtrOracleEvaluations counts DelayOracle.SinkDelays invocations — the
	// dominant cost of every algorithm (equals Result.Evaluations).
	CtrOracleEvaluations = "core.oracle.evaluations"
	// CtrSweeps counts greedy sweeps (one per algorithm iteration).
	CtrSweeps = "core.sweep.sweeps"
	// CtrSweepCandidates counts candidate edges offered to sweeps.
	CtrSweepCandidates = "core.sweep.candidates"
	// CtrAcceptedEdges counts accepted topology modifications (edges, taps).
	CtrAcceptedEdges = "core.sweep.accepted"
	// CtrCandidatesPruned counts sweep candidates pruned by a proved lower
	// bound (incremental scoring only): widenings skipped before any probe,
	// and edge and tap probes stopped early. Unlike the other sweep
	// counters it is order-dependent: it is deterministic for a fixed seed,
	// but not invariant under input relabeling.
	CtrCandidatesPruned = "core.sweep.pruned"
	// CtrTapCandidates counts mid-edge tap candidates evaluated.
	CtrTapCandidates = "core.taps.candidates"
	// CtrTapsAccepted counts accepted taps (subset of CtrAcceptedEdges).
	CtrTapsAccepted = "core.taps.accepted"
	// CtrWidenCandidates counts WSORG widening candidates evaluated.
	CtrWidenCandidates = "core.wiresize.candidates"
	// CtrWidenings counts accepted WSORG width increments.
	CtrWidenings = "core.wiresize.widenings"

	// --- package elmore: incremental (Sherman–Morrison) evaluator ---

	// CtrIncrementalEvals counts WithEdge, WithWiden and WithTap probes and
	// the MaxWithEdge and MaxWithTap cutoff probes, stopped or not. The
	// evaluator tallies its evaluations, hits and misses and adds them in
	// batches (Incremental.Flush).
	CtrIncrementalEvals = "elmore.incremental.evaluations"
	// CtrIncrementalHits counts transfer-resistance column cache hits.
	CtrIncrementalHits = "elmore.incremental.cache_hits"
	// CtrIncrementalMisses counts column cache misses (triangular solves).
	CtrIncrementalMisses = "elmore.incremental.cache_misses"
	// CtrIncrementalFactorizations counts factorizations made for the
	// incremental evaluator: one per Refactor (NewIncremental's included,
	// when Obs is already set), and one per full re-solve a sweep makes
	// through IncrementalScorer.Solve; the evaluator adopts a committed
	// winner's re-solve instead of refactoring.
	CtrIncrementalFactorizations = "elmore.incremental.factorizations"
	// CtrElmoreSolves counts linear-system solves made by the Elmore and
	// two-pole oracles' SinkDelays (one per Elmore evaluation, two per
	// two-pole). Incremental Elmore runs solve through the scorer instead.
	CtrElmoreSolves = "elmore.graph.solves"

	// --- package spice: MNA transient simulator ---

	// CtrMNAFactorizations counts LU factorizations of MNA matrices.
	CtrMNAFactorizations = "spice.mna.factorizations"
	// CtrMNASolves counts triangular back-substitutions (one per timestep).
	CtrMNASolves = "spice.mna.solves"
	// CtrTranRuns counts fixed-step transient analyses.
	CtrTranRuns = "spice.tran.runs"
	// CtrTranSteps counts fixed-step timesteps executed.
	CtrTranSteps = "spice.tran.steps"
	// CtrTranEarlyExits counts transients that stopped before Stop because
	// every watched node had crossed its threshold.
	CtrTranEarlyExits = "spice.tran.early_exits"
	// CtrMeasureRuns counts MeasureDelays invocations.
	CtrMeasureRuns = "spice.measure.runs"
	// CtrMeasureRetries counts horizon-quadrupling retries inside
	// MeasureDelays (a node had not crossed within the window).
	CtrMeasureRetries = "spice.measure.horizon_retries"
	// CtrMeasureDCSolves counts the DC final-value solves MeasureDelays
	// performs to fix threshold levels.
	CtrMeasureDCSolves = "spice.measure.dc_solves"

	// --- package serve: the nontree-serve daemon ---
	//
	// Serve counters live in a separate catalog (ServeCounterNames,
	// preregistered by PreregisterServe) so the benchmark harness's
	// snapshot schema — frozen over CounterNames — is untouched by daemon
	// instrumentation. The serve package aliases these values locally;
	// the obsnames analyzer matches by value, so both spellings satisfy
	// the lint gate.

	// CtrRouteRequests counts /route requests accepted for routing.
	CtrRouteRequests = "serve.route.requests"
	// CtrRouteErrors counts /route requests that failed (bad input or
	// routing error).
	CtrRouteErrors = "serve.route.errors"
	// CtrRouteRejected counts /route requests shed by the concurrency
	// limiter or refused while draining.
	CtrRouteRejected = "serve.route.rejected"
	// CtrTraceEvictions counts traces evicted from the retention window.
	CtrTraceEvictions = "serve.traces.evictions"
	// CtrLogEvents counts wide events appended to the request log ring
	// (exactly one per /route request, whatever its outcome).
	CtrLogEvents = "serve.log.events"
	// CtrLogDropped counts wide events discarded because request logging
	// is disabled (Options.MaxLogEvents < 0).
	CtrLogDropped = "serve.log.dropped"
	// CtrLogEvictions counts wide events evicted from the log ring by
	// wraparound.
	CtrLogEvictions = "serve.log.evictions"

	// --- package sim: the nontree-sim workload driver ---
	//
	// Sim counters live in their own catalog (SimCounterNames, preregistered
	// by PreregisterSim) for the same schema-freezing reason as the serve
	// catalog. They are client-side: they count requests the driver issued,
	// mirroring the daemon's serve.route.* counters from the other end of
	// the wire, so a soak report can reconcile both views.

	// CtrSimRequests counts requests the workload driver issued.
	CtrSimRequests = "sim.client.requests"
	// CtrSimOK counts requests answered 200.
	CtrSimOK = "sim.client.ok"
	// CtrSimShed counts requests shed by the daemon (429 or drain 503).
	CtrSimShed = "sim.client.shed"
	// CtrSimErrors counts requests that failed any other way (transport
	// errors, 4xx/5xx outside the shed statuses).
	CtrSimErrors = "sim.client.errors"
)

// Histogram names (deterministic sections — integer-valued samples only).
const (
	// HistSweepCandidates is the per-sweep candidate count distribution.
	HistSweepCandidates = "core.sweep.candidates_per_sweep"
	// HistTranSteps is the per-transient step-count distribution.
	HistTranSteps = "spice.tran.steps_per_run"
)

// Wall-clock timing names (Timings section — excluded from determinism).
const (
	// TimeSweep spans one full greedy sweep (candidate generation through
	// reduction).
	TimeSweep = "core.sweep.seconds"
	// TimeSweepWorker spans one worker goroutine's share of a sweep.
	TimeSweepWorker = "core.sweep.worker.seconds"
	// TimeOracleSeconds spans one DelayOracle.SinkDelays evaluation. The
	// serve layer reads its per-request sum from a private registry to
	// attribute /route latency to oracle work vs. sweep bookkeeping in the
	// wide event's phase breakdown (DESIGN.md §16).
	TimeOracleSeconds = "core.oracle.seconds"
	// TimeRouteSeconds is the wall-clock /route handling distribution.
	TimeRouteSeconds = "serve.route.seconds"
	// TimeSimRequestSeconds is the workload driver's client-observed
	// per-request latency distribution (includes the wire, unlike the
	// server-side TimeRouteSeconds).
	TimeSimRequestSeconds = "sim.client.request.seconds"
)

// CounterNames returns the full counter catalog.
func CounterNames() []string {
	return []string{
		CtrOracleEvaluations,
		CtrSweeps,
		CtrSweepCandidates,
		CtrAcceptedEdges,
		CtrCandidatesPruned,
		CtrTapCandidates,
		CtrTapsAccepted,
		CtrWidenCandidates,
		CtrWidenings,
		CtrIncrementalEvals,
		CtrIncrementalHits,
		CtrIncrementalMisses,
		CtrIncrementalFactorizations,
		CtrElmoreSolves,
		CtrMNAFactorizations,
		CtrMNASolves,
		CtrTranRuns,
		CtrTranSteps,
		CtrTranEarlyExits,
		CtrMeasureRuns,
		CtrMeasureRetries,
		CtrMeasureDCSolves,
	}
}

// HistogramNames returns the deterministic histogram catalog.
func HistogramNames() []string {
	return []string{HistSweepCandidates, HistTranSteps}
}

// ServeCounterNames returns the daemon counter catalog — disjoint from
// CounterNames so the benchmark snapshot schema stays frozen.
func ServeCounterNames() []string {
	return []string{
		CtrRouteRequests,
		CtrRouteErrors,
		CtrRouteRejected,
		CtrTraceEvictions,
		CtrLogEvents,
		CtrLogDropped,
		CtrLogEvictions,
	}
}

// SimCounterNames returns the workload-driver counter catalog — disjoint
// from CounterNames and ServeCounterNames so both existing snapshot
// schemas stay frozen.
func SimCounterNames() []string {
	return []string{
		CtrSimRequests,
		CtrSimOK,
		CtrSimShed,
		CtrSimErrors,
	}
}

// TimingNames returns the wall-clock timing catalog (Timings section —
// excluded from determinism guarantees).
func TimingNames() []string {
	return []string{TimeSweep, TimeSweepWorker, TimeOracleSeconds, TimeRouteSeconds, TimeSimRequestSeconds}
}

// Preregister creates every cataloged counter (at zero) and histogram
// (empty) in the registry, freezing the snapshot key set regardless of
// which code paths the following run takes.
func Preregister(g *Registry) {
	for _, name := range CounterNames() {
		g.Add(name, 0)
	}
	for _, name := range HistogramNames() {
		g.Declare(name)
	}
}

// PreregisterServe additionally creates the daemon's counters and its
// route-timing histogram, so /metrics exposes the full serve surface from
// the first scrape — before any request has exercised the paths. serve.New
// calls this on whatever registry it is handed.
func PreregisterServe(g *Registry) {
	for _, name := range ServeCounterNames() {
		g.Add(name, 0)
	}
	g.DeclareTiming(TimeRouteSeconds)
	g.DeclareTiming(TimeOracleSeconds)
}

// PreregisterSim creates the workload driver's counters and its latency
// timing histogram, freezing the SIM_*.json snapshot key set the same way
// PreregisterServe freezes the /metrics surface. sim drivers call this on
// whatever registry they are handed.
func PreregisterSim(g *Registry) {
	for _, name := range SimCounterNames() {
		g.Add(name, 0)
	}
	g.DeclareTiming(TimeSimRequestSeconds)
}
