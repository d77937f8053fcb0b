package spice

import (
	"errors"
	"fmt"
	"math"

	"nontree/internal/linalg"
	"nontree/internal/obs"
)

// AdaptiveOpts configures local-truncation-error-controlled transient
// analysis — the variable-timestep mode real SPICE uses. The integrator is
// trapezoidal; the LTE of each step is estimated by comparing one full step
// against two half steps (step doubling), and the step size is adjusted to
// hold the estimate near Tolerance.
type AdaptiveOpts struct {
	// Stop is the end time (s).
	Stop float64
	// Tolerance is the per-step LTE target in volts (default 1e-4·Vmax
	// with Vmax estimated as 1; i.e. 100 µV).
	Tolerance float64
	// Record retains waveform samples.
	Record bool
	// Obs counts accepted steps, rejections, refactorizations and solves
	// (nil = discard). Deterministic for fixed circuit and options.
	Obs obs.Recorder
}

// ErrStepUnderflow indicates the controller could not meet tolerance above
// its minimum step, Stop/10^7.
var ErrStepUnderflow = errors.New("spice: adaptive step underflow")

// TransientAdaptive runs an LTE-controlled trapezoidal transient from the
// zero state. It is slower per step than the fixed-step Transient (three
// solves and periodic refactorization) but chooses its own step sizes,
// making it robust for circuits with widely spread time constants.
func TransientAdaptive(c *Circuit, opts AdaptiveOpts) (*TranResult, error) {
	if opts.Stop <= 0 {
		return nil, fmt.Errorf("%w: stop=%g", ErrBadTranOpts, opts.Stop)
	}
	sys, err := assemble(c)
	if err != nil {
		return nil, err
	}
	return sys.transientAdaptive(opts)
}

// transientAdaptive is TransientAdaptive on an assembled system; the caller
// has checked opts.Stop.
func (sys *mnaSystem) transientAdaptive(opts AdaptiveOpts) (*TranResult, error) {
	c := sys.circuit
	// The controller starts at Stop/1000. It may not go below Stop/10^7:
	// a run that would is unstable and fails. It may not exceed Stop/50,
	// so no step straddles a threshold crossing by much.
	h := opts.Stop / 1000
	minStep := opts.Stop / 1e7
	maxStep := opts.Stop / 50
	tol := opts.Tolerance
	if tol <= 0 {
		tol = 1e-4
	}

	rec := obs.OrNop(opts.Obs)
	stepper := newTrapStepper(sys, rec)

	x := make([]float64, sys.size)
	t := 0.0
	res := &TranResult{}
	record := func(tm float64, state []float64) {
		if !opts.Record {
			return
		}
		if res.V == nil {
			res.V = make([][]float64, c.numNodes)
		}
		res.Times = append(res.Times, tm)
		volts := make([]float64, c.numNodes)
		for n := 1; n < c.numNodes; n++ {
			volts[n] = state[n-1]
		}
		for n := 0; n < c.numNodes; n++ {
			res.V[n] = append(res.V[n], volts[n])
		}
	}
	record(0, x)

	full := make([]float64, sys.size)
	half := make([]float64, sys.size)
	quarter := make([]float64, sys.size)

	for t < opts.Stop {
		if t+h > opts.Stop {
			h = opts.Stop - t
		}
		// One full step.
		if err := stepper.step(x, full, t, h); err != nil {
			return nil, err
		}
		// Two half steps.
		if err := stepper.step(x, quarter, t, h/2); err != nil {
			return nil, err
		}
		if err := stepper.step(quarter, half, t+h/2, h/2); err != nil {
			return nil, err
		}
		// LTE estimate: for a 2nd-order method, err ≈ |x_half − x_full|/3.
		var lte float64
		for i := 0; i < sys.nv; i++ {
			if e := math.Abs(half[i]-full[i]) / 3; e > lte {
				lte = e
			}
		}

		if lte > tol && h > minStep {
			// Reject: shrink (classic PI-free controller with safety 0.9).
			rec.Add(obs.CtrAdaptiveRejections, 1)
			shrink := 0.9 * math.Sqrt(tol/math.Max(lte, 1e-300))
			if shrink < 0.1 {
				shrink = 0.1
			}
			h = math.Max(h*shrink, minStep)
			continue
		}
		if lte > tol && h <= minStep {
			return nil, fmt.Errorf("%w at t=%g (lte %g > tol %g)", ErrStepUnderflow, t, lte, tol)
		}

		// Accept the more accurate two-half-step solution (local
		// extrapolation would be x_half + (x_half−x_full)/3; the plain
		// half-step result keeps the method's stability properties).
		copy(x, half)
		t += h
		res.Steps += 1
		record(t, x)

		// Grow the step when comfortably inside tolerance.
		if lte < tol/4 {
			h = math.Min(h*2, maxStep)
		}
	}

	final := make([]float64, c.numNodes)
	for n := 1; n < c.numNodes; n++ {
		final[n] = x[n-1]
	}
	res.Final = final
	rec.Add(obs.CtrAdaptiveSteps, int64(res.Steps))
	rec.Observe(obs.HistAdaptiveSteps, float64(res.Steps))
	return res, nil
}

// trapStepper performs single trapezoidal steps with cached factorizations
// per step size (the adaptive controller reuses a few sizes heavily).
type trapStepper struct {
	sys       *mnaSystem
	cache     map[float64]*trapFactors
	algebraic []bool
	rec       obs.Recorder
	// scratch
	rhs, bPrev, bNext, hist []float64
}

type trapFactors struct {
	lu    *linalg.LU
	histC *linalg.Sparse // 2C/h − G
}

func newTrapStepper(sys *mnaSystem, rec obs.Recorder) *trapStepper {
	return &trapStepper{
		sys:       sys,
		cache:     make(map[float64]*trapFactors),
		algebraic: sys.algebraicRows(),
		rec:       obs.OrNop(rec),
		rhs:       make([]float64, sys.size),
		bPrev:     make([]float64, sys.size),
		bNext:     make([]float64, sys.size),
		hist:      make([]float64, sys.size),
	}
}

func (s *trapStepper) factors(h float64) (*trapFactors, error) {
	if f, ok := s.cache[h]; ok {
		return f, nil
	}
	lu, err := s.sys.g.AddScaled(s.sys.c, 2/h).Factor()
	if err != nil {
		return nil, fmt.Errorf("spice: adaptive factorization at h=%g: %w", h, err)
	}
	s.rec.Add(obs.CtrAdaptiveRefactor, 1)
	s.rec.Add(obs.CtrMNAFactorizations, 1)
	zero := linalg.NewSparse(s.sys.size, s.sys.size, nil)
	hist := zero.AddScaled(s.sys.c, 2/h).AddScaled(s.sys.g, -1)
	f := &trapFactors{lu: lu, histC: hist}
	// Bound the cache: the controller halves/doubles, so a handful of
	// sizes suffice; evict wholesale if it ever grows past 32.
	if len(s.cache) > 32 {
		s.cache = make(map[float64]*trapFactors)
	}
	s.cache[h] = f
	return f, nil
}

// step advances from state x at time t by h (both in seconds), writing the
// result to out (x is not modified).
func (s *trapStepper) step(x, out []float64, t, h float64) error {
	f, err := s.factors(h)
	if err != nil {
		return err
	}
	s.sys.rhs(s.bPrev, t)
	s.sys.rhs(s.bNext, t+h)
	f.histC.MulVecInto(s.hist, x)
	for i := range s.rhs {
		if s.algebraic[i] {
			// Algebraic constraint rows are enforced instantaneously —
			// see the matching comment in the fixed-step integrator.
			s.rhs[i] = s.bNext[i]
			continue
		}
		s.rhs[i] = s.hist[i] + s.bPrev[i] + s.bNext[i]
	}
	f.lu.SolveInPlace(s.rhs)
	s.rec.Add(obs.CtrMNASolves, 1)
	copy(out, s.rhs)
	return nil
}
