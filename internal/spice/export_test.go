package spice

import (
	"errors"
	"slices"

	"nontree/internal/linalg"
	"nontree/internal/scratch"
)

// OperatingPoint, FinalValue and TransientThresholds are analyses only the
// tests call: the DC solves and the threshold-watching transient that
// MeasureDelays runs inside, exposed on their own.

// OperatingPoint computes the DC solution of the circuit with all sources
// held at their t=0⁺ values and capacitors open / inductors shorted.
//
// Inductor shorts are represented by their branch rows with the L·di/dt
// term dropped (the G-side incidence already enforces v_a = v_b); capacitors
// simply contribute nothing to G.
func OperatingPoint(c *Circuit) ([]float64, error) {
	return dcAnalysis(c, 0, "DC operating point")
}

// FinalValue computes the DC solution with all sources at their value as
// t → ∞ (evaluated at the given large time atTime, in s), giving the
// settled voltages (V) a transient converges to — the reference for
// 50%-threshold delay.
func FinalValue(c *Circuit, atTime float64) ([]float64, error) {
	return dcAnalysis(c, atTime, "final value")
}

// dcAnalysis runs one DC solve of c on a workspace of its own.
func dcAnalysis(c *Circuit, atTime float64, what string) ([]float64, error) {
	w := workspaces.Get()
	defer w.release()
	if err := w.sys.assemble(c); err != nil {
		return nil, err
	}
	v, err := w.dcSolve(atTime, what)
	return slices.Clone(v), err
}

// TransientThresholds runs a transient like Transient and also detects,
// for each node in watch, the first time its voltage crosses its level (V,
// rising), by linear interpolation between steps: the threshold watch
// MeasureDelays runs over one horizon.
func TransientThresholds(c *Circuit, opts TranOpts, watch []int, levels []float64) (*TranResult, error) {
	if len(watch) != len(levels) {
		return nil, errors.New("spice: watch nodes and threshold levels must align")
	}
	return transient(c, opts, &thresholdWatch{nodes: watch, levels: levels})
}

// The equivalence tests build their circuits with internal/rc, which
// imports this package, so they live in package spice_test; these hand them
// the dense references of spice_test.go.

func ReferenceTransientThresholds(c *Circuit, opts TranOpts, watch []int, levels []float64) (*TranResult, error) {
	return referenceTransient(c, opts, &thresholdWatch{nodes: watch, levels: levels})
}

func ReferenceTransient(c *Circuit, opts TranOpts) (*TranResult, error) {
	return referenceTransient(c, opts, nil)
}

func ReferenceFinalValue(c *Circuit, atTime float64) ([]float64, error) {
	return referenceDC(c, atTime)
}

func ReferenceOperatingPoint(c *Circuit) ([]float64, error) { return referenceDC(c, 0) }

var ReferenceMeasureDelays = referenceMeasureDelays

// IterationMatrix assembles c and returns its trapezoidal iteration matrix
// G + 2C/h at the step MeasureDelays takes first (the estimated horizon
// over the default steps per horizon): the matrix every measurement
// factors.
func IterationMatrix(c *Circuit) *linalg.Sparse {
	var sys mnaSystem
	if err := sys.assemble(c); err != nil {
		panic(err)
	}
	h := horizonEstimate(c) / float64(DefaultMeasureOpts().StepsPerHorizon)
	var m linalg.Sparse
	sys.g.AddScaledInto(&m, &sys.c, 2/h)
	return &m
}

// WithWorkspaceSlots runs fn with n idle-workspace slots in place of the
// analyses' own: with none every analysis builds its storage from scratch,
// and with one every analysis takes the workspace the one before it
// returned.
func WithWorkspaceSlots(n int, fn func()) {
	saved := workspaces
	workspaces = make(scratch.Slots[workspace], n)
	defer func() { workspaces = saved }()
	fn()
}

// IdleWorkspace returns the workspace held in the first slot, or nil.
func IdleWorkspace() any {
	if w := workspaces[0].Load(); w != nil {
		return w
	}
	return nil
}
