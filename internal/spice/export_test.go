package spice

import "nontree/internal/linalg"

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
