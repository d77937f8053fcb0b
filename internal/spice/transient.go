package spice

import (
	"errors"
	"fmt"

	"nontree/internal/linalg"
	"nontree/internal/obs"
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
	//
	//nontree:unit s
	Step float64
	// Stop is the end time in seconds. Must exceed Step.
	//
	//nontree:unit s
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
	// Times holds the sample instants (only when TranOpts.Record).
	//
	//nontree:unit s
	Times []float64
	// V[n] holds node n's waveform aligned with Times (only when Record).
	//
	//nontree:unit V
	V [][]float64
	// Final holds the node voltages at Stop time.
	//
	//nontree:unit V
	Final []float64
	// Crossings[n] is the first time node n's voltage crossed the threshold
	// given to TransientThreshold, or a negative value if it never did.
	// Populated only by TransientThreshold.
	//
	//nontree:unit s
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

// TransientThreshold runs a transient like Transient but additionally
// detects, for each node in watch, the first time its voltage crosses the
// given threshold (rising), using linear interpolation between steps.
// The simulation still runs to opts.Stop so Final is meaningful.
//
//nontree:unit threshold V
func TransientThreshold(c *Circuit, opts TranOpts, watch []int, threshold float64) (*TranResult, error) {
	levels := make([]float64, len(watch))
	for i := range levels {
		levels[i] = threshold
	}
	return TransientThresholds(c, opts, watch, levels)
}

// TransientThresholds is TransientThreshold with a per-node threshold level.
//
//nontree:unit levels V
func TransientThresholds(c *Circuit, opts TranOpts, watch []int, levels []float64) (*TranResult, error) {
	if len(watch) != len(levels) {
		return nil, errors.New("spice: watch nodes and threshold levels must align")
	}
	return transient(c, opts, &thresholdWatch{nodes: watch, levels: levels})
}

type thresholdWatch struct {
	nodes  []int
	levels []float64 //nontree:unit V
}

// validate reports whether the options describe a runnable transient.
func (o TranOpts) validate() error {
	if o.Step <= 0 || o.Stop <= o.Step {
		return fmt.Errorf("%w: step=%g stop=%g", ErrBadTranOpts, o.Step, o.Stop)
	}
	return nil
}

func transient(c *Circuit, opts TranOpts, watch *thresholdWatch) (*TranResult, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	sys, err := assemble(c)
	if err != nil {
		return nil, err
	}
	return sys.transient(opts, watch)
}

// transient runs a fixed-step transient of the assembled system. Every
// matrix stays sparse: a step is one sparse history product and one
// compressed triangular solve, and allocates nothing.
func (sys *mnaSystem) transient(opts TranOpts, watch *thresholdWatch) (*TranResult, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	c := sys.circuit
	rec := obs.OrNop(opts.Obs)
	h := opts.Step
	zero := linalg.NewSparse(sys.size, sys.size, nil)

	// Build the iteration matrix once; with a fixed step it never changes.
	//   BE:   (C/h + G)      x_{k+1} = C/h·x_k            + b_{k+1}
	//   TRAP: (2C/h + G)     x_{k+1} = (2C/h − G)·x_k     + b_k + b_{k+1}
	var lhs, histC *linalg.Sparse // histC is applied to x_k on the right-hand side
	switch opts.Method {
	case BackwardEuler:
		lhs = sys.g.AddScaled(sys.c, 1/h)
		histC = zero.AddScaled(sys.c, 1/h) // histC = C/h
	case Trapezoidal:
		lhs = sys.g.AddScaled(sys.c, 2/h)
		histC = zero.AddScaled(sys.c, 2/h).AddScaled(sys.g, -1) // histC = 2C/h − G
	default:
		return nil, fmt.Errorf("spice: unknown integration method %v", opts.Method)
	}
	lu, err := lhs.Factor()
	if err != nil {
		return nil, fmt.Errorf("spice: transient matrix is singular (floating node?): %w", err)
	}
	rec.Add(obs.CtrMNAFactorizations, 1)

	// SPICE practice: take the very first step with Backward Euler. The
	// t=0 source discontinuity makes the zero initial state inconsistent,
	// and trapezoidal integration — which is only marginally stable — would
	// smear the edge across the first step; L-stable BE resolves it.
	var beLU *linalg.LU
	var beHist *linalg.Sparse
	if opts.Method == Trapezoidal {
		beLU, err = sys.g.AddScaled(sys.c, 1/h).Factor()
		if err != nil {
			return nil, fmt.Errorf("spice: transient matrix is singular (floating node?): %w", err)
		}
		rec.Add(obs.CtrMNAFactorizations, 1)
		beHist = zero.AddScaled(sys.c, 1/h)
	}

	// Rows with no dynamic (C/L) entries are algebraic constraints —
	// voltage-source rows and capacitor-free KCL rows. Trapezoidal
	// averaging must not be applied to them: with an inconsistent initial
	// state (an ideal step at t=0), averaging makes the constraint ring
	// between 2·b and 0 forever. They are enforced instantaneously instead.
	algebraic := sys.algebraicRows()

	x := make([]float64, sys.size)
	bPrev := make([]float64, sys.size)
	bNext := make([]float64, sys.size)
	rhs := make([]float64, sys.size)
	hist := make([]float64, sys.size) // history term: histC·x, reused each step
	sys.rhs(bPrev, 0)

	res := &TranResult{}
	rec.Add(obs.CtrTranRuns, 1)
	// One triangular solve per executed step; no error exits remain once
	// res is allocated, so the deferred flush covers both the early-exit
	// and the run-to-Stop return paths.
	defer func() {
		rec.Add(obs.CtrTranSteps, int64(res.Steps))
		rec.Add(obs.CtrMNASolves, int64(res.Steps))
		rec.Observe(obs.HistTranSteps, float64(res.Steps))
	}()
	var crossings []float64
	var prevWatch []float64
	if watch != nil {
		crossings = make([]float64, len(watch.nodes))
		for i := range crossings {
			crossings[i] = -1
		}
		prevWatch = make([]float64, len(watch.nodes))
	}

	record := func(t float64, volts []float64) {
		if !opts.Record {
			return
		}
		if res.V == nil {
			res.V = make([][]float64, c.numNodes)
		}
		res.Times = append(res.Times, t)
		for n := 0; n < c.numNodes; n++ {
			res.V[n] = append(res.V[n], volts[n])
		}
	}
	record(0, make([]float64, c.numNodes))

	steps := int(opts.Stop/h + 0.5)
	for k := 1; k <= steps; k++ {
		t := float64(k) * h
		sys.rhs(bNext, t)

		useTrap := opts.Method == Trapezoidal && k > 1
		if opts.Method == Trapezoidal && k == 1 {
			beHist.MulVecInto(hist, x)
		} else {
			histC.MulVecInto(hist, x)
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
			beLU.SolveInPlace(rhs)
		} else {
			lu.SolveInPlace(rhs)
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
				final := make([]float64, c.numNodes)
				for n := 1; n < c.numNodes; n++ {
					final[n] = x[n-1]
				}
				res.Final = final
				res.Crossings = crossings
				return res, nil
			}
		}
		if opts.Record {
			volts := make([]float64, c.numNodes)
			for n := 1; n < c.numNodes; n++ {
				volts[n] = x[n-1]
			}
			record(t, volts)
		}
		res.Steps = k
	}

	final := make([]float64, c.numNodes)
	for n := 1; n < c.numNodes; n++ {
		final[n] = x[n-1]
	}
	res.Final = final
	res.Crossings = crossings
	return res, nil
}
