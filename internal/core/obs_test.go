package core

import (
	"errors"
	"fmt"
	"testing"

	"nontree/internal/graph"
	"nontree/internal/obs"
	"nontree/internal/rc"
	"nontree/internal/spice"
	"nontree/internal/trace"
)

// Observability contract (DESIGN.md §10): the counters a run records must
// agree exactly with the quantities the result structs already report, and
// the preregistered catalog must make every metric present even when zero.

func TestObsCountersMatchLDRGResult(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		topo := randomMST(t, 8100+seed, 12)
		reg := obs.NewRegistry()
		obs.Preregister(reg)
		ring := trace.NewRing(1 << 12)
		res, err := LDRG(topo, Options{
			Oracle: &ElmoreOracle{Params: rc.Default(), Obs: reg},
			Obs:    reg,
			Trace:  ring,
		})
		if err != nil {
			t.Fatal(err)
		}
		snap := reg.Snapshot()
		c := snap.Counters

		if got := c[obs.CtrOracleEvaluations]; got != int64(res.Evaluations) {
			t.Errorf("seed %d: %s = %d, want Result.Evaluations = %d",
				seed, obs.CtrOracleEvaluations, got, res.Evaluations)
		}
		if got := c[obs.CtrAcceptedEdges]; got != int64(len(res.AddedEdges)) {
			t.Errorf("seed %d: %s = %d, want len(AddedEdges) = %d",
				seed, obs.CtrAcceptedEdges, got, len(res.AddedEdges))
		}
		// The greedy loop runs one sweep per accepted edge plus the final
		// sweep that finds nothing.
		if got := c[obs.CtrSweeps]; got != int64(len(res.AddedEdges)+1) {
			t.Errorf("seed %d: %s = %d, want %d sweeps",
				seed, obs.CtrSweeps, got, len(res.AddedEdges)+1)
		}
		checkOneFactorPerWinner(t, fmt.Sprintf("seed %d", seed), c, res.Evaluations, len(res.AddedEdges))
		// The per-sweep candidate histogram must agree with the counter.
		h := snap.Histograms[obs.HistSweepCandidates]
		if h.Count != c[obs.CtrSweeps] {
			t.Errorf("seed %d: histogram count %d != sweeps %d", seed, h.Count, c[obs.CtrSweeps])
		}
		if int64(h.Sum) != c[obs.CtrSweepCandidates] {
			t.Errorf("seed %d: histogram sum %g != candidate counter %d",
				seed, h.Sum, c[obs.CtrSweepCandidates])
		}
		// Every candidate is either scored or pruned by an early stop, and
		// from 10 pins up some probes do stop.
		var scored, pruned int64
		for _, ev := range ring.Events() {
			switch ev.Kind {
			case trace.KindCandidateScored:
				scored++
			case trace.KindCandidatePruned:
				pruned++
			}
		}
		if scored+pruned != c[obs.CtrSweepCandidates] {
			t.Errorf("seed %d: %d scored + %d pruned events, want %s = %d",
				seed, scored, pruned, obs.CtrSweepCandidates, c[obs.CtrSweepCandidates])
		}
		if got := c[obs.CtrCandidatesPruned]; got != pruned || got == 0 {
			t.Errorf("seed %d: %s = %d, want the %d pruned events, and more than 0",
				seed, obs.CtrCandidatesPruned, got, pruned)
		}
		// The evaluator's batched counts have all landed on return: a
		// stopped probe still counts, so one probe per candidate, two
		// column lookups per probe.
		edgeProbes := c[obs.CtrSweepCandidates]
		checkIncrementalCounts(t, fmt.Sprintf("seed %d", seed), c, edgeProbes, 2*edgeProbes)
	}
}

// checkOneFactorPerWinner asserts how an incremental Elmore run solves in
// full. The seed is scored from the evaluator's own factorization, and
// every other evaluation is a scorer Solve, counted as an incremental
// factorization, so the oracle's SinkDelays (elmore.graph.solves) never
// runs. The evaluator adopts each committed winner's solution instead of
// refactoring, so these nets, whose sweeps re-solve only their winners,
// factor once per accepted winner, not twice (re-solve, then Refactor).
func checkOneFactorPerWinner(t *testing.T, label string, c map[string]int64, evals, accepted int) {
	t.Helper()
	if got := c[obs.CtrElmoreSolves]; got != 0 {
		t.Errorf("%s: %s = %d, want 0", label, obs.CtrElmoreSolves, got)
	}
	if got := c[obs.CtrIncrementalFactorizations]; got != int64(evals-1) || got != int64(accepted) {
		t.Errorf("%s: %s = %d, want Evaluations-1 = %d and one per accepted winner, %d",
			label, obs.CtrIncrementalFactorizations, got, evals-1, accepted)
	}
}

// checkIncrementalCounts asserts the incremental evaluator's counters: the
// probes it made, and its column-cache lookups (hits plus misses).
func checkIncrementalCounts(t *testing.T, label string, c map[string]int64, probes, lookups int64) {
	t.Helper()
	if probes == 0 {
		t.Fatalf("%s: no probes expected; the case checks nothing", label)
	}
	if got := c[obs.CtrIncrementalEvals]; got != probes {
		t.Errorf("%s: %s = %d, want %d probes", label, obs.CtrIncrementalEvals, got, probes)
	}
	if got := c[obs.CtrIncrementalHits] + c[obs.CtrIncrementalMisses]; got != lookups {
		t.Errorf("%s: cache hits+misses = %d, want %d lookups", label, got, lookups)
	}
}

// TestObsCountersMatchTapsResult: LDRGWithTaps probes every edge candidate
// (two columns each) and every tap candidate (three columns: both
// endpoints and the source); neither kind is ever pruned.
func TestObsCountersMatchTapsResult(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		reg := obs.NewRegistry()
		obs.Preregister(reg)
		if _, err := LDRGWithTaps(randomMST(t, 8400+seed, 10), Options{Oracle: elmoreOracle(), Obs: reg}); err != nil {
			t.Fatal(err)
		}
		c := reg.Snapshot().Counters
		edgeProbes := c[obs.CtrSweepCandidates]
		tapProbes := c[obs.CtrTapCandidates]
		checkIncrementalCounts(t, fmt.Sprintf("seed %d", seed), c, edgeProbes+tapProbes, 2*edgeProbes+3*tapProbes)
	}
}

// TestObsCountersMatchH1Result: H1 pre-screens each sweep's one shortcut
// with a single probe, outside the sweep scan.
func TestObsCountersMatchH1Result(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		reg := obs.NewRegistry()
		obs.Preregister(reg)
		ring := trace.NewRing(1 << 10)
		res, err := H1(randomMST(t, 8500+seed, 12), Options{Oracle: &ElmoreOracle{Params: rc.Default(), Obs: reg}, Obs: reg, Trace: ring})
		if err != nil {
			t.Fatal(err)
		}
		var sweeps int64
		for _, ev := range ring.Events() {
			if ev.Kind == trace.KindSweepStart {
				sweeps++
			}
		}
		c := reg.Snapshot().Counters
		checkIncrementalCounts(t, fmt.Sprintf("seed %d", seed), c, sweeps, 2*sweeps)
		checkOneFactorPerWinner(t, fmt.Sprintf("seed %d", seed), c, res.Evaluations, len(res.AddedEdges))
	}
}

// TestObsCountersLandOnOracleError: when the oracle fails in the middle of
// a sweep (the full re-solve of the incremental leader), the probes the
// sweep already made are counted before the error surfaces. The uniform
// weighted objective disables pruning, so every candidate is probed.
func TestObsCountersLandOnOracleError(t *testing.T) {
	seed := randomMST(t, 42, 8)
	oracle := &failingIncrementalOracle{failingOracle{
		fails: func(t *graph.Topology, _ rc.WidthFunc) bool { return t.NumEdges() != seed.NumEdges() },
	}}
	reg := obs.NewRegistry()
	obs.Preregister(reg)
	_, err := LDRG(seed, Options{Oracle: oracle, Objective: &WeightedDelayObjective{}, Obs: reg})
	if !errors.Is(err, errCandidate) {
		t.Fatalf("got error %v, want the injected failure", err)
	}
	c := reg.Snapshot().Counters
	probes := c[obs.CtrSweepCandidates]
	checkIncrementalCounts(t, "failed sweep", c, probes, 2*probes)
}

func TestObsCountersMatchWireSizeResult(t *testing.T) {
	topo := randomMST(t, 8200, 10)
	reg := obs.NewRegistry()
	obs.Preregister(reg)
	res, err := WireSize(topo, WireSizeOptions{}, Options{
		Oracle: &ElmoreOracle{Params: rc.Default(), Obs: reg},
		Obs:    reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := reg.Snapshot().Counters
	if got := c[obs.CtrOracleEvaluations]; got != int64(res.Evaluations) {
		t.Errorf("%s = %d, want Result.Evaluations = %d",
			obs.CtrOracleEvaluations, got, res.Evaluations)
	}
	if got := c[obs.CtrWidenings]; got != int64(res.Widenings) {
		t.Errorf("%s = %d, want Widenings = %d", obs.CtrWidenings, got, res.Widenings)
	}
	checkOneFactorPerWinner(t, "WireSize", c, res.Evaluations, res.Widenings)
}

// TestObsCountersMatchCleanupResult: Cleanup scores the input and every
// removal that keeps the net connected with a full oracle call, and each
// one is counted.
func TestObsCountersMatchCleanupResult(t *testing.T) {
	routed, err := LDRG(randomMST(t, 8300, 12), Options{Oracle: elmoreOracle()})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	obs.Preregister(reg)
	res, err := Cleanup(routed.Topology, 0.05, Options{Oracle: elmoreOracle(), Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations < 2 {
		t.Fatalf("Cleanup made %d evaluations; the case checks nothing", res.Evaluations)
	}
	if got := reg.Snapshot().Counters[obs.CtrOracleEvaluations]; got != int64(res.Evaluations) {
		t.Errorf("%s = %d, want Result.Evaluations = %d", obs.CtrOracleEvaluations, got, res.Evaluations)
	}
}

// TestObsSpiceOracleRecordsSimulatorCounters drives the SPICE oracle once
// and checks the simulator-side counters landed in the same registry the
// oracle was handed.
func TestObsSpiceOracleRecordsSimulatorCounters(t *testing.T) {
	topo := randomMST(t, 8300, 5)
	reg := obs.NewRegistry()
	obs.Preregister(reg)
	oracle := &SpiceOracle{Params: rc.Default(), Obs: reg}
	if _, err := oracle.SinkDelays(topo, nil); err != nil {
		t.Fatal(err)
	}
	c := reg.Snapshot().Counters
	for _, name := range []string{
		obs.CtrMeasureRuns,
		obs.CtrMeasureDCSolves,
		obs.CtrTranRuns,
		obs.CtrTranSteps,
		obs.CtrMNAFactorizations,
		obs.CtrMNASolves,
	} {
		if c[name] == 0 {
			t.Errorf("%s = 0 after a SPICE measurement; expected activity", name)
		}
	}
	if c[obs.CtrMeasureRuns] != 1 {
		t.Errorf("%s = %d, want exactly 1", obs.CtrMeasureRuns, c[obs.CtrMeasureRuns])
	}
}

// TestSpiceOracleKeepsMeasureOptions: a zero Measure.ThresholdFraction
// selects the default threshold and nothing else, so the rest of the
// caller's Measure options still apply. A recorder on Measure.Obs takes
// precedence over the oracle's Obs.
func TestSpiceOracleKeepsMeasureOptions(t *testing.T) {
	topo := randomMST(t, 8300, 5)
	measure, oracleRec := obs.NewRegistry(), obs.NewRegistry()
	oracle := &SpiceOracle{Params: rc.Default(), Measure: spice.MeasureOpts{Obs: measure}, Obs: oracleRec}
	if _, err := oracle.SinkDelays(topo, nil); err != nil {
		t.Fatal(err)
	}
	if got := measure.Snapshot().Counters[obs.CtrMeasureRuns]; got != 1 {
		t.Errorf("Measure.Obs: %s = %d, want 1", obs.CtrMeasureRuns, got)
	}
	if got := oracleRec.Snapshot().Counters[obs.CtrMeasureRuns]; got != 0 {
		t.Errorf("oracle Obs: %s = %d, want 0 (Measure.Obs takes precedence)", obs.CtrMeasureRuns, got)
	}
}

// TestObsNilRecorderIsFree: every instrumented entry point must accept a
// nil recorder (the default) without panicking or changing results.
func TestObsNilRecorderIsFree(t *testing.T) {
	topo := randomMST(t, 8400, 8)
	withObs, err := LDRG(topo, Options{Oracle: elmoreOracle(), Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	without, err := LDRG(topo, Options{Oracle: elmoreOracle()})
	if err != nil {
		t.Fatal(err)
	}
	//nontree:allow floatcmp instrumentation must not perturb results at all; any ULP difference is a bug
	if withObs.FinalObjective != without.FinalObjective {
		t.Errorf("recorder changed the objective: %x vs %x",
			withObs.FinalObjective, without.FinalObjective)
	}
	if len(withObs.AddedEdges) != len(without.AddedEdges) {
		t.Errorf("recorder changed accepted edges: %d vs %d",
			len(withObs.AddedEdges), len(without.AddedEdges))
	}
}
