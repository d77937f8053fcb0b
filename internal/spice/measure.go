package spice

import (
	"errors"
	"fmt"
	"math"

	"nontree/internal/obs"
	"nontree/internal/trace"
)

// MeasureOpts configures threshold-delay extraction.
type MeasureOpts struct {
	// ThresholdFraction is the fraction of each node's final value at which
	// delay is measured; SPICE convention (and the paper's) is 50%.
	//
	//nontree:unit 1
	ThresholdFraction float64
	// InitialHorizon is the first simulation window tried, in seconds. If
	// zero a heuristic based on the circuit's total RC product is used.
	//
	//nontree:unit s
	InitialHorizon float64
	// MaxHorizon caps the adaptive horizon doubling; if zero, 1024× the
	// initial horizon.
	//
	//nontree:unit s
	MaxHorizon float64
	// StepsPerHorizon is the number of fixed timesteps across the horizon
	// (default 2000, giving sub-0.1% delay resolution with interpolation).
	StepsPerHorizon int
	// Method selects the integrator (default Trapezoidal).
	Method Method
	// Adaptive switches to the LTE-controlled variable-step integrator;
	// StepsPerHorizon and Method are then ignored. Slower per run but
	// robust to widely spread time constants.
	Adaptive bool
	// Obs receives the measurement's counters — runs, DC solves, horizon
	// retries, and the underlying integrator's step/solve/factorization
	// counts (nil = discard). All counters are deterministic functions of
	// the circuit and options (DESIGN.md §10).
	Obs obs.Recorder
	// Trace emits one oracle_eval event per MeasureDelays call (nil =
	// discard): Oracle "spice", N the number of circuit nodes. Event order
	// is deterministic only when measurements run from one goroutine.
	Trace trace.Tracer
}

// DefaultMeasureOpts returns the options used throughout the experiment
// harness: 50% threshold, trapezoidal integration, auto horizon.
func DefaultMeasureOpts() MeasureOpts {
	return MeasureOpts{ThresholdFraction: 0.5, StepsPerHorizon: 2000, Method: Trapezoidal}
}

// ErrNoCrossing is returned when a watched node fails to reach its
// threshold within MaxHorizon — symptomatic of a disconnected node.
var ErrNoCrossing = errors.New("spice: node never crossed its delay threshold")

// MeasureDelays simulates the circuit's step response and returns the
// threshold-crossing delay of each watched node, adaptively doubling the
// simulation window until every node has crossed (or MaxHorizon is hit).
//
// Final values are taken from a DC solve with sources at their settled
// values, so thresholds are exact even when the transient window is short.
//
//nontree:unit return s
func MeasureDelays(c *Circuit, watch []int, opts MeasureOpts) ([]float64, error) {
	if len(watch) == 0 {
		return nil, errors.New("spice: no nodes to measure")
	}
	if opts.ThresholdFraction <= 0 || opts.ThresholdFraction >= 1 {
		return nil, fmt.Errorf("spice: threshold fraction %g outside (0,1)", opts.ThresholdFraction)
	}
	steps := opts.StepsPerHorizon
	if steps <= 0 {
		steps = 2000
	}
	rec := obs.OrNop(opts.Obs)
	rec.Add(obs.CtrMeasureRuns, 1)
	trace.OrNop(opts.Trace).Emit(trace.Event{Kind: trace.KindOracleEval,
		Oracle: "spice", N: int64(c.NumNodes())})

	// One assembly serves the DC solve and every horizon retry.
	sys, err := assemble(c)
	if err != nil {
		return nil, err
	}
	final, err := sys.dcSolve(math.MaxFloat64, "final value")
	if err != nil {
		return nil, err
	}
	rec.Add(obs.CtrMeasureDCSolves, 1)
	levels := make([]float64, len(watch))
	for i, n := range watch {
		if final[n] <= 0 {
			return nil, fmt.Errorf("spice: node %d settles to %g V; cannot measure a rising delay", n, final[n])
		}
		levels[i] = opts.ThresholdFraction * final[n]
	}

	horizon := opts.InitialHorizon
	if horizon <= 0 {
		horizon = horizonEstimate(c)
	}
	maxHorizon := opts.MaxHorizon
	if maxHorizon <= 0 {
		maxHorizon = horizon * 1024
	}

	for {
		var crossings []float64
		if opts.Adaptive {
			crossings, err = sys.adaptiveCrossings(horizon, watch, levels, opts.Obs)
		} else {
			var res *TranResult
			res, err = sys.transient(TranOpts{
				Step:   horizon / float64(steps),
				Stop:   horizon,
				Method: opts.Method,
				Obs:    opts.Obs,
			}, &thresholdWatch{nodes: watch, levels: levels})
			if err == nil {
				crossings = res.Crossings
			}
		}
		if err != nil {
			return nil, err
		}
		allCrossed := true
		for _, t := range crossings {
			if t < 0 {
				allCrossed = false
				break
			}
		}
		if allCrossed {
			return crossings, nil
		}
		if horizon >= maxHorizon {
			return nil, fmt.Errorf("%w within %g s", ErrNoCrossing, horizon)
		}
		horizon *= 4
		rec.Add(obs.CtrMeasureRetries, 1)
	}
}

// adaptiveCrossings runs the LTE-controlled integrator with waveform
// recording and extracts threshold crossings by linear interpolation over
// the (non-uniform) samples.
//
//nontree:unit horizon s
//nontree:unit levels V
//nontree:unit return s
func (sys *mnaSystem) adaptiveCrossings(horizon float64, watch []int, levels []float64, rec obs.Recorder) ([]float64, error) {
	res, err := sys.transientAdaptive(AdaptiveOpts{Stop: horizon, Record: true, Obs: rec})
	if err != nil {
		return nil, err
	}
	crossings := make([]float64, len(watch))
	for i := range crossings {
		crossings[i] = -1
	}
	for i, node := range watch {
		wave := res.V[node]
		for k := 1; k < len(wave); k++ {
			if wave[k] >= levels[i] {
				frac := 1.0
				if dv := wave[k] - wave[k-1]; dv > 0 {
					frac = (levels[i] - wave[k-1]) / dv
				}
				crossings[i] = res.Times[k-1] + frac*(res.Times[k]-res.Times[k-1])
				break
			}
		}
	}
	return crossings, nil
}

// MaxDelay returns the largest of the measured delays — the paper's
// t(G) = max_i t(n_i) objective.
//
//nontree:unit delays s
//nontree:unit return s
func MaxDelay(delays []float64) float64 {
	var worst float64
	for _, d := range delays {
		if d > worst {
			worst = d
		}
	}
	return worst
}

// horizonEstimate returns a conservative initial simulation window from the
// circuit's aggregate time constants: (sum of resistances)·(sum of
// capacitances) overestimates any single pole, and a small multiple of the
// dominant time constant bounds the 50% crossing.
//
//nontree:unit return s
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
