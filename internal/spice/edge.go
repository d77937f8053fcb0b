package spice

import (
	"errors"
	"fmt"
)

// EdgeMetrics characterizes one node's step-response edge beyond the 50%
// delay: rise time and (for RLC circuits) overshoot.
type EdgeMetrics struct {
	// Delay50 is the 50%-of-final crossing time (s).
	Delay50 float64
	// Rise1090 is the 10%→90% rise time (s).
	Rise1090 float64
	// Peak is the maximum voltage observed (V).
	Peak float64
	// OvershootPercent is 100·(Peak − final)/final, 0 for monotone RC
	// responses.
	OvershootPercent float64
	// Final is the settled voltage (V).
	Final float64
}

// MeasureEdge simulates the circuit's step response and extracts edge
// metrics for one node. The horizon is chosen like MeasureDelays; the
// waveform is recorded so the peak is exact to the sampling resolution.
func MeasureEdge(c *Circuit, node int, opts MeasureOpts) (*EdgeMetrics, error) {
	if node <= 0 || node >= c.NumNodes() {
		return nil, fmt.Errorf("spice: edge metrics node %d out of range", node)
	}
	steps := opts.StepsPerHorizon
	if steps <= 0 {
		steps = 2000
	}
	sys, err := assemble(c)
	if err != nil {
		return nil, err
	}
	finalV, err := sys.dcSolve(1e30, "final value")
	if err != nil {
		return nil, err
	}
	vf := finalV[node]
	if vf <= 0 {
		return nil, errors.New("spice: node settles at or below zero; no rising edge to measure")
	}

	horizon := opts.InitialHorizon
	if horizon <= 0 {
		horizon = horizonEstimate(c)
	}
	maxHorizon := horizon * maxHorizonGrowth

	for {
		res, err := sys.transient(TranOpts{
			Step:   horizon / float64(steps),
			Stop:   horizon,
			Method: opts.Method,
			Record: true,
		}, nil)
		if err != nil {
			return nil, err
		}
		wave := res.V[node]
		m := &EdgeMetrics{Final: vf}
		t10 := crossing(res.Times, wave, 0.1*vf)
		t50 := crossing(res.Times, wave, 0.5*vf)
		t90 := crossing(res.Times, wave, 0.9*vf)
		for _, v := range wave {
			if v > m.Peak {
				m.Peak = v
			}
		}
		if t10 >= 0 && t50 >= 0 && t90 >= 0 {
			m.Delay50 = t50
			m.Rise1090 = t90 - t10
			if m.Peak > vf {
				m.OvershootPercent = 100 * (m.Peak - vf) / vf
			}
			return m, nil
		}
		if horizon >= maxHorizon {
			return nil, fmt.Errorf("%w within %g s", ErrNoCrossing, horizon)
		}
		horizon *= 4
	}
}

// crossing returns the first time the sampled waveform reaches level
// (linear interpolation), or -1.
func crossing(times, wave []float64, level float64) float64 {
	for k := 1; k < len(wave); k++ {
		if wave[k] >= level {
			frac := 1.0
			if dv := wave[k] - wave[k-1]; dv > 0 {
				frac = (level - wave[k-1]) / dv
			}
			return times[k-1] + frac*(times[k]-times[k-1])
		}
	}
	return -1
}
