// Package core implements the paper's contribution: routing algorithms that
// abandon the tree restriction. It contains the LDRG greedy algorithm
// (Figure 4), its Steiner variant SLDRG (Figure 6), the three fast
// heuristics H1/H2/H3 (Section 3), and the Section 5 extensions —
// critical-sink objectives (CSORG), greedy wire sizing (WSORG), and their
// combination (HORG).
//
// Every algorithm is steered by a DelayOracle. The paper's reference method
// evaluates candidate graphs with SPICE; SpiceOracle reproduces that using
// the internal transient simulator. ElmoreOracle instead uses the
// general-graph Elmore model (transfer-resistance form), which is orders of
// magnitude faster and selects nearly the same edges — the experiment
// harness exposes both and an ablation bench quantifies the difference.
package core

import (
	"errors"
	"fmt"
	"strings"

	"nontree/internal/elmore"
	"nontree/internal/graph"
	"nontree/internal/obs"
	"nontree/internal/rc"
	"nontree/internal/spice"
)

// DelayOracle estimates per-node signal delays of a routing topology.
// Implementations must support arbitrary connected graphs (cycles allowed).
//
// Thread safety: when Options.Workers != 1 the greedy sweeps call SinkDelays
// from multiple goroutines concurrently (each on its own Topology), so
// implementations must not mutate shared state across calls — allocate
// matrices, circuits and scratch buffers per invocation, or guard any reuse.
// ElmoreOracle, TwoPoleOracle and SpiceOracle all satisfy this: their
// configuration fields are read-only after construction and every evaluation
// builds its workspaces from scratch (see the audit notes in package elmore
// and package spice). The race-mode tests in parallel_test.go guard this
// contract dynamically; statically, the purityflow analyzer rejects
// writes to shared state in oracle methods, directly or through every
// helper call chain (DESIGN.md §14), so a mutation laundered two helpers
// deep fails lint just like a direct one.
type DelayOracle interface {
	// SinkDelays returns a delay per topology node (indexed by node id;
	// entries for non-sink nodes are implementation-defined). width gives
	// per-edge wire widths; nil means unit width.
	//
	//nontree:unit return s
	SinkDelays(t *graph.Topology, width rc.WidthFunc) ([]float64, error)
	// Name identifies the oracle in reports.
	Name() string
}

// ElmoreOracle evaluates delays with the general-graph Elmore model: a
// single conductance solve per topology. Suitable for trees and graphs.
// Safe for concurrent use.
type ElmoreOracle struct {
	Params rc.Params
	// Obs counts the oracle's internal linear solves (nil = discard).
	Obs obs.Recorder
}

// Name implements DelayOracle.
func (o *ElmoreOracle) Name() string { return "elmore" }

// SinkDelays implements DelayOracle.
//
//nontree:unit return s
func (o *ElmoreOracle) SinkDelays(t *graph.Topology, width rc.WidthFunc) ([]float64, error) {
	defer obs.StartSpan(o.Obs, obs.TimeOracleSeconds).End()
	l, err := rc.Lump(t, o.Params, width)
	if err != nil {
		return nil, err
	}
	obs.OrNop(o.Obs).Add(obs.CtrElmoreSolves, 1)
	return elmore.GraphDelays(t, l)
}

// NewIncrementalSweep implements IncrementalScorer: the Elmore model is
// the one oracle whose candidate evaluations reduce to exact low-rank
// perturbations of a factored base state (see elmore.Incremental).
func (o *ElmoreOracle) NewIncrementalSweep(t *graph.Topology, width rc.WidthFunc) (*elmore.Incremental, error) {
	return elmore.NewIncrementalWidth(t, o.Params, width)
}

// Solve implements IncrementalScorer: one full solve of t, with the
// arithmetic of SinkDelays, kept whole so the evaluator can adopt it.
func (o *ElmoreOracle) Solve(t *graph.Topology, width rc.WidthFunc) (*elmore.Solution, error) {
	defer obs.StartSpan(o.Obs, obs.TimeOracleSeconds).End()
	return elmore.Solve(t, o.Params, width)
}

// TwoPoleOracle evaluates delays with the two-pole (second-moment) Padé
// model — markedly closer to the simulator than Elmore (≈2% vs ≈8% critical-
// sink error in this repository's measurements) at the cost of one extra
// linear solve per evaluation. Like ElmoreOracle it handles arbitrary
// connected graphs. Safe for concurrent use.
type TwoPoleOracle struct {
	Params rc.Params
	// Obs counts the oracle's internal linear solves (nil = discard).
	Obs obs.Recorder
}

// Name implements DelayOracle.
func (o *TwoPoleOracle) Name() string { return "twopole" }

// SinkDelays implements DelayOracle.
//
//nontree:unit return s
func (o *TwoPoleOracle) SinkDelays(t *graph.Topology, width rc.WidthFunc) ([]float64, error) {
	defer obs.StartSpan(o.Obs, obs.TimeOracleSeconds).End()
	l, err := rc.Lump(t, o.Params, width)
	if err != nil {
		return nil, err
	}
	obs.OrNop(o.Obs).Add(obs.CtrElmoreSolves, 2) // first and second moment solves
	return elmore.TwoPoleDelays(t, l)
}

// SpiceOracle evaluates delays with the transient circuit simulator — the
// paper's SPICE methodology. Considerably slower than ElmoreOracle but
// exact for the interconnect model. Safe for concurrent use: every call
// builds a fresh circuit and MNA workspace.
type SpiceOracle struct {
	Params rc.Params
	// Build controls circuit construction (segmentation, inductance).
	Build rc.BuildOpts
	// Measure controls delay extraction. A zero ThresholdFraction means the
	// default 0.5; the other fields apply as given, and their zero values
	// are spice.DefaultMeasureOpts' settings.
	Measure spice.MeasureOpts
	// Obs receives the simulator's counters (MNA solves, transient steps,
	// horizon retries, …); nil discards them. A recorder already set on
	// Measure.Obs takes precedence.
	Obs obs.Recorder
}

// Name implements DelayOracle.
func (o *SpiceOracle) Name() string { return "spice" }

// SinkDelays implements DelayOracle.
//
//nontree:unit return s
func (o *SpiceOracle) SinkDelays(t *graph.Topology, width rc.WidthFunc) ([]float64, error) {
	defer obs.StartSpan(o.Obs, obs.TimeOracleSeconds).End()
	opts := o.Build
	if width != nil {
		opts.Width = width
	}
	cm, err := rc.BuildCircuit(t, o.Params, opts)
	if err != nil {
		return nil, err
	}
	mo := o.Measure
	//nontree:allow floatcmp zero is the exact zero-value sentinel for an unset config field, never a computed delay
	if mo.ThresholdFraction == 0 {
		mo.ThresholdFraction = spice.DefaultMeasureOpts().ThresholdFraction
	}
	if mo.Obs == nil {
		mo.Obs = o.Obs
	}
	crossings, err := spice.MeasureDelays(cm.Circuit, cm.SinkNodes, mo)
	if err != nil {
		return nil, fmt.Errorf("core: spice oracle on %d-node topology: %w", t.NumNodes(), err)
	}
	delays := make([]float64, t.NumNodes())
	for i, d := range crossings {
		delays[i+1] = d // SinkNodes are topology nodes 1..NumPins-1 in order
	}
	return delays, nil
}

// tagRequest wraps an error with the request identity so a failure
// surfaced at /route names the wide event it belongs to. Every exported
// entry point applies it once, on return; oracles never tag. id "" (the
// non-daemon case) and nil errors pass through untouched, and an error
// already carrying this id's tag is not tagged again, because composite
// algorithms (SLDRG, HORG) nest entry points.
func tagRequest(id string, err error) error {
	if err == nil || id == "" {
		return err
	}
	if strings.Contains(err.Error(), "[request "+id+"]") {
		return err
	}
	return fmt.Errorf("[request %s] %w", id, err)
}

// Objective reduces per-sink delays to the scalar an algorithm minimizes.
type Objective interface {
	// Eval scores the delays of a topology with the given pin count.
	//
	//nontree:unit delays s
	//nontree:unit return s
	Eval(delays []float64, numPins int) (float64, error)
	// Name identifies the objective in reports.
	Name() string
}

// MaxDelayObjective is the ORG objective t(G) = max_i t(n_i).
type MaxDelayObjective struct{}

// Name implements Objective.
func (MaxDelayObjective) Name() string { return "max-sink-delay" }

// Eval implements Objective.
//
//nontree:unit delays s
//nontree:unit return s
func (MaxDelayObjective) Eval(delays []float64, numPins int) (float64, error) {
	if numPins < 2 {
		return 0, errors.New("core: objective needs at least one sink")
	}
	return elmore.MaxSinkDelay(delays, numPins), nil
}

// WeightedDelayObjective is the CSORG objective Σ α_i·t(n_i) of Section
// 5.1. Alphas[i] weights sink node i+1. With all weights equal it minimizes
// average sink delay; with a single non-zero weight it minimizes delay to
// one identified critical sink.
type WeightedDelayObjective struct {
	Alphas []float64
}

// Name implements Objective.
func (o *WeightedDelayObjective) Name() string { return "weighted-sink-delay" }

// Eval implements Objective.
//
//nontree:unit delays s
//nontree:unit return s
func (o *WeightedDelayObjective) Eval(delays []float64, numPins int) (float64, error) {
	return elmore.WeightedSinkDelay(delays, numPins, o.Alphas)
}

// UniformCriticality returns CSORG weights realizing average-delay
// minimization: α_i = 1 for every sink of a net with numPins pins.
func UniformCriticality(numPins int) []float64 {
	a := make([]float64, numPins-1)
	for i := range a {
		a[i] = 1
	}
	return a
}

// SingleCriticalSink returns CSORG weights for the "exactly one critical
// sink" special case the paper highlights: α_cs = 1, all others 0. The
// sink argument is a topology node index (1-based pin).
func SingleCriticalSink(numPins, sink int) ([]float64, error) {
	if sink < 1 || sink >= numPins {
		return nil, fmt.Errorf("core: critical sink %d out of range [1,%d)", sink, numPins)
	}
	a := make([]float64, numPins-1)
	a[sink-1] = 1
	return a, nil
}
