package spice

import (
	"errors"

	"nontree/internal/linalg"
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
	sys, err := assemble(c)
	if err != nil {
		return nil, err
	}
	return sys.dcSolve(0, "DC operating point")
}

// FinalValue computes the DC solution with all sources at their value as
// t → ∞ (evaluated at the given large time atTime, in s), giving the
// settled voltages (V) a transient converges to — the reference for
// 50%-threshold delay.
func FinalValue(c *Circuit, atTime float64) ([]float64, error) {
	sys, err := assemble(c)
	if err != nil {
		return nil, err
	}
	return sys.dcSolve(atTime, "final value")
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
	sys, err := assemble(c)
	if err != nil {
		panic(err)
	}
	h := horizonEstimate(c) / float64(DefaultMeasureOpts().StepsPerHorizon)
	return sys.g.AddScaled(sys.c, 2/h)
}
