package spice

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"nontree/internal/obs"
	"nontree/internal/scratch"
)

// MeasureOpts configures threshold-delay extraction.
type MeasureOpts struct {
	// ThresholdFraction is the fraction of each node's final value at which
	// delay is measured; SPICE convention (and the paper's) is 50%.
	ThresholdFraction float64
	// StepsPerHorizon is the number of fixed timesteps across the horizon
	// (default 2000, giving sub-0.1% delay resolution with interpolation).
	StepsPerHorizon int
	// Method selects the integrator (default Trapezoidal).
	Method Method
	// Obs receives the measurement's counters — runs, DC solves, horizon
	// retries, and the underlying integrator's step/solve/factorization
	// counts (nil = discard). All counters are deterministic functions of
	// the circuit and options (DESIGN.md §10).
	Obs obs.Recorder
}

// DefaultMeasureOpts returns the options used throughout the experiment
// harness: 50% threshold, trapezoidal integration, auto horizon.
func DefaultMeasureOpts() MeasureOpts {
	return MeasureOpts{ThresholdFraction: 0.5, StepsPerHorizon: 2000, Method: Trapezoidal}
}

// maxHorizonGrowth caps the horizon retries: a measurement gives up once
// its window reaches this multiple of the initial horizon.
const maxHorizonGrowth = 1024

// ErrNoCrossing is returned when a watched node fails to reach its
// threshold within maxHorizonGrowth× the initial horizon — symptomatic of
// a disconnected node.
var ErrNoCrossing = errors.New("spice: node never crossed its delay threshold")

// MeasureDelays simulates the circuit's step response and returns the
// threshold-crossing delay (s) of each watched node, growing the simulation
// window fourfold until every node has crossed (or the window reaches
// maxHorizonGrowth× the initial horizon).
//
// Final values are taken from a DC solve with sources at their settled
// values, so thresholds are exact even when the transient window is short.
// A watch node outside [1, NumNodes) is an ErrBadNode error.
func MeasureDelays(c *Circuit, watch []int, opts MeasureOpts) ([]float64, error) {
	if len(watch) == 0 {
		return nil, errors.New("spice: no nodes to measure")
	}
	if opts.ThresholdFraction <= 0 || opts.ThresholdFraction >= 1 {
		return nil, fmt.Errorf("spice: threshold fraction %g outside (0,1)", opts.ThresholdFraction)
	}
	for _, n := range watch {
		if n < 1 || n >= c.numNodes {
			return nil, fmt.Errorf("%w: watch node %d (circuit has %d nodes, ground is 0)", ErrBadNode, n, c.numNodes)
		}
	}
	steps := opts.StepsPerHorizon
	if steps <= 0 {
		steps = 2000
	}
	rec := obs.OrNop(opts.Obs)
	rec.Add(obs.CtrMeasureRuns, 1)

	// One workspace, with one assembly, serves the DC solve and every
	// horizon retry.
	w := workspaces.Get()
	defer w.release()
	if err := w.sys.assemble(c); err != nil {
		return nil, err
	}
	final, err := w.dcSolve(math.MaxFloat64, "final value")
	if err != nil {
		return nil, err
	}
	rec.Add(obs.CtrMeasureDCSolves, 1)
	w.levels = scratch.Resize(w.levels, len(watch))
	levels := w.levels
	for i, n := range watch {
		if final[n] <= 0 {
			return nil, fmt.Errorf("spice: node %d settles to %g V; cannot measure a rising delay", n, final[n])
		}
		levels[i] = opts.ThresholdFraction * final[n]
	}

	horizon := horizonEstimate(c)
	maxHorizon := horizon * maxHorizonGrowth

	for {
		err := w.transient(TranOpts{
			Step:   horizon / float64(steps),
			Stop:   horizon,
			Method: opts.Method,
			Obs:    opts.Obs,
		}, &thresholdWatch{nodes: watch, levels: levels}, &w.res)
		if err != nil {
			return nil, err
		}
		if !slices.ContainsFunc(w.res.Crossings, func(t float64) bool { return t < 0 }) {
			return slices.Clone(w.res.Crossings), nil
		}
		if horizon >= maxHorizon {
			return nil, fmt.Errorf("%w within %g s", ErrNoCrossing, horizon)
		}
		horizon *= 4
		rec.Add(obs.CtrMeasureRetries, 1)
	}
}

// MaxDelay returns the largest of the measured delays (s) — the paper's
// t(G) = max_i t(n_i) objective.
func MaxDelay(delays []float64) float64 {
	var worst float64
	for _, d := range delays {
		if d > worst {
			worst = d
		}
	}
	return worst
}

// horizonEstimate returns a conservative initial simulation window (s)
// from the circuit's aggregate time constants: (sum of resistances)·(sum
// of capacitances) overestimates any single pole, and a small multiple of
// the dominant time constant bounds the 50% crossing.
func horizonEstimate(c *Circuit) float64 {
	var rTot, cTot, lTot float64
	for _, r := range c.resistors {
		rTot += r.ohms
	}
	for _, cap := range c.capacitors {
		cTot += cap.farads
	}
	for _, l := range c.inductors {
		lTot += l.henries
	}
	est := rTot * cTot
	if lTot > 0 && rTot > 0 {
		est += lTot / rTot * 10
	}
	if est <= 0 {
		est = 1e-9
	}
	return 2 * est
}
