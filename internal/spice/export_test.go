package spice

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
