package spice

import (
	"errors"
	"fmt"

	"nontree/internal/obs"
	"nontree/internal/scratch"
)

// Method selects the implicit integration scheme for transient analysis.
type Method int

const (
	// Trapezoidal is SPICE's default second-order A-stable scheme.
	Trapezoidal Method = iota
	// BackwardEuler is first-order and L-stable; it damps the ringing that
	// trapezoidal integration can sustain on LC circuits, and serves as an
	// ablation reference.
	BackwardEuler
)

// String names the method for reports.
func (m Method) String() string {
	switch m {
	case Trapezoidal:
		return "trapezoidal"
	case BackwardEuler:
		return "backward-euler"
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// TranOpts configures a transient run.
type TranOpts struct {
	// Step is the fixed timestep in seconds. Must be positive.
	Step float64
	// Stop is the end time in seconds. Must exceed Step.
	Stop float64
	// Method selects the integrator (default Trapezoidal).
	Method Method
	// Record keeps all waveform samples in the result. When false only the
	// running state needed for threshold detection is kept, which matters
	// inside LDRG's candidate-evaluation loop.
	Record bool
	// Obs counts runs, steps, factorizations, solves and early exits
	// (nil = discard). Deterministic for fixed circuit and options.
	Obs obs.Recorder
}

// ErrBadTranOpts reports invalid transient options.
var ErrBadTranOpts = errors.New("spice: transient options require 0 < Step < Stop")

// TranResult holds a transient simulation's outcome.
type TranResult struct {
	// Times holds the sample instants in seconds (only when
	// TranOpts.Record).
	Times []float64
	// V[n] holds node n's waveform in volts, aligned with Times (only when
	// Record).
	V [][]float64
	// Final holds the node voltages (V) at Stop time.
	Final []float64
	// Crossings[i] is the first time (s) the i-th watched node's voltage
	// reached its threshold, or a negative value if it never did. Populated
	// only for the threshold watch MeasureDelays runs.
	Crossings []float64
	// Steps is the number of timesteps executed.
	Steps int
}

// Transient runs a fixed-step implicit transient analysis from the zero
// state (all node voltages and branch currents zero at t=0), returning
// waveforms per TranOpts.
func Transient(c *Circuit, opts TranOpts) (*TranResult, error) {
	return transient(c, opts, nil)
}

type thresholdWatch struct {
	nodes  []int
	levels []float64 // V
}

// validate reports whether the options describe a runnable transient.
func (o TranOpts) validate() error {
	if o.Step <= 0 || o.Stop <= o.Step {
		return fmt.Errorf("%w: step=%g stop=%g", ErrBadTranOpts, o.Step, o.Stop)
	}
	return nil
}

// transient runs one transient of c on a workspace of its own, into a
// result the caller owns.
func transient(c *Circuit, opts TranOpts, watch *thresholdWatch) (*TranResult, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	w := workspaces.Get()
	defer w.release()
	if err := w.sys.assemble(c); err != nil {
		return nil, err
	}
	res := new(TranResult)
	if err := w.transient(opts, watch, res); err != nil {
		return nil, err
	}
	return res, nil
}

// transient runs a fixed-step transient of w's assembled system into res,
// reusing the storage res holds. Every matrix stays sparse: a step is one
// sparse history product and one compressed triangular solve, and
// allocates nothing.
func (w *workspace) transient(opts TranOpts, watch *thresholdWatch, res *TranResult) error {
	if err := opts.validate(); err != nil {
		return err
	}
	sys := &w.sys
	c := sys.circuit
	rec := obs.OrNop(opts.Obs)
	h := opts.Step
	zero := w.zero.Assemble(sys.size, sys.size, nil)

	// Build the iteration matrix once; with a fixed step it never changes.
	//   BE:   (C/h + G)      x_{k+1} = C/h·x_k            + b_{k+1}
	//   TRAP: (2C/h + G)     x_{k+1} = (2C/h − G)·x_k     + b_k + b_{k+1}
	// w.histC is applied to x_k on the right-hand side.
	switch opts.Method {
	case BackwardEuler:
		sys.g.AddScaledInto(&w.lhs, &sys.c, 1/h)
		zero.AddScaledInto(&w.histC, &sys.c, 1/h) // C/h
	case Trapezoidal:
		sys.g.AddScaledInto(&w.lhs, &sys.c, 2/h)
		zero.AddScaledInto(&w.scaled, &sys.c, 2/h)
		w.scaled.AddScaledInto(&w.histC, &sys.g, -1) // 2C/h − G
	default:
		return fmt.Errorf("spice: unknown integration method %v", opts.Method)
	}
	if err := w.lhs.FactorInto(&w.lu); err != nil {
		return fmt.Errorf("spice: transient matrix is singular (floating node?): %w", err)
	}
	rec.Add(obs.CtrMNAFactorizations, 1)

	// SPICE practice: take the very first step with Backward Euler. The
	// t=0 source discontinuity makes the zero initial state inconsistent,
	// and trapezoidal integration — which is only marginally stable — would
	// smear the edge across the first step; L-stable BE resolves it.
	if opts.Method == Trapezoidal {
		sys.g.AddScaledInto(&w.beLhs, &sys.c, 1/h)
		if err := w.beLhs.FactorInto(&w.beLU); err != nil {
			return fmt.Errorf("spice: transient matrix is singular (floating node?): %w", err)
		}
		rec.Add(obs.CtrMNAFactorizations, 1)
		zero.AddScaledInto(&w.beHist, &sys.c, 1/h)
	}

	// Rows with no dynamic (C/L) entries are algebraic constraints —
	// voltage-source rows and capacitor-free KCL rows. Trapezoidal
	// averaging must not be applied to them: with an inconsistent initial
	// state (an ideal step at t=0), averaging makes the constraint ring
	// between 2·b and 0 forever. They are enforced instantaneously instead.
	w.algebraic = sys.algebraicRows(w.algebraic)
	algebraic := w.algebraic

	size := sys.size
	w.x, w.bPrev, w.bNext = scratch.Resize(w.x, size), scratch.Resize(w.bPrev, size), scratch.Resize(w.bNext, size)
	w.rhs, w.hist = scratch.Resize(w.rhs, size), scratch.Resize(w.hist, size)
	x, bPrev, bNext, rhs, hist := w.x, w.bPrev, w.bNext, w.rhs, w.hist
	clear(x) // the zero initial state
	sys.rhs(bPrev, 0)

	res.Steps = 0
	rec.Add(obs.CtrTranRuns, 1)
	// One triangular solve per executed step; no error exits remain once
	// the run has started, so the deferred flush covers both the
	// early-exit and the run-to-Stop return paths.
	defer func() {
		rec.Add(obs.CtrTranSteps, int64(res.Steps))
		rec.Add(obs.CtrMNASolves, int64(res.Steps))
		rec.Observe(obs.HistTranSteps, float64(res.Steps))
	}()
	var crossings, prevWatch []float64
	if watch != nil {
		crossings = scratch.Resize(res.Crossings, len(watch.nodes))
		for i := range crossings {
			crossings[i] = -1
		}
		w.prevWatch = scratch.Resize(w.prevWatch, len(watch.nodes))
		prevWatch = w.prevWatch
		clear(prevWatch)
	}

	// record samples every node voltage at time t: ground, then x.
	record := func(t float64) {
		res.Times = append(res.Times, t)
		res.V[0] = append(res.V[0], 0)
		for n := 1; n < c.numNodes; n++ {
			res.V[n] = append(res.V[n], x[n-1])
		}
	}
	if opts.Record {
		res.Times, res.V = res.Times[:0], scratch.Resize(res.V, c.numNodes)
		for n := range res.V {
			res.V[n] = res.V[n][:0]
		}
		record(0)
	}

	steps := int(opts.Stop/h + 0.5)
	for k := 1; k <= steps; k++ {
		t := float64(k) * h
		sys.rhs(bNext, t)

		useTrap := opts.Method == Trapezoidal && k > 1
		if opts.Method == Trapezoidal && k == 1 {
			w.beHist.MulVecInto(hist, x)
		} else {
			w.histC.MulVecInto(hist, x)
		}
		for i := range rhs {
			switch {
			case useTrap && algebraic[i]:
				rhs[i] = bNext[i]
			case useTrap:
				rhs[i] = hist[i] + bPrev[i] + bNext[i]
			default:
				rhs[i] = hist[i] + bNext[i]
			}
		}
		if opts.Method == Trapezoidal && k == 1 {
			w.beLU.SolveInPlace(rhs)
		} else {
			w.lu.SolveInPlace(rhs)
		}
		copy(x, rhs)
		bPrev, bNext = bNext, bPrev

		if watch != nil {
			remaining := 0
			for i, n := range watch.nodes {
				if crossings[i] >= 0 {
					continue
				}
				remaining++
				var v float64
				if n > 0 {
					v = x[n-1]
				}
				if v >= watch.levels[i] {
					// Linear interpolation between the previous and current step.
					frac := 1.0
					if dv := v - prevWatch[i]; dv > 0 {
						frac = (watch.levels[i] - prevWatch[i]) / dv
					}
					crossings[i] = t - h + frac*h
					remaining--
				}
				prevWatch[i] = v
			}
			if remaining == 0 && !opts.Record {
				// Every watched node has crossed; the caller only needs the
				// crossing times, so stop early.
				rec.Add(obs.CtrTranEarlyExits, 1)
				res.Steps = k
				res.Final = sys.nodeVoltages(res.Final, x)
				res.Crossings = crossings
				return nil
			}
		}
		if opts.Record {
			record(t)
		}
		res.Steps = k
	}

	res.Final = sys.nodeVoltages(res.Final, x)
	res.Crossings = crossings
	return nil
}
