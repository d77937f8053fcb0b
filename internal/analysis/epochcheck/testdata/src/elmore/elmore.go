// Package elmore is a minimal stand-in for nontree/internal/elmore's
// Incremental evaluator: same probe/Refactor protocol surface, matched by
// the analyzer through name and package name.
package elmore

import "graph"

// Incremental answers delay probes against one factorization of the
// topology; Refactor re-establishes it after a committed mutation.
type Incremental struct{ epoch int }

// NewIncremental factors the current topology.
func NewIncremental(t *graph.Topology) (*Incremental, error) {
	return &Incremental{}, nil
}

// Refactor re-factors after a committed mutation.
func (inc *Incremental) Refactor() error {
	inc.epoch++
	return nil
}

// Solution is one full solve of a modified topology.
type Solution struct{}

// Adopt installs a committed modification's solution, starting an epoch.
func (inc *Incremental) Adopt(sol *Solution) error {
	inc.epoch++
	return nil
}

// WithEdge probes the delay vector with one extra edge.
func (inc *Incremental) WithEdge(e graph.Edge) ([]float64, error) { return nil, nil }

// WithWiden probes with one edge widened.
func (inc *Incremental) WithWiden(e graph.Edge) ([]float64, error) { return nil, nil }

// WithTap probes with a mid-edge tap.
func (inc *Incremental) WithTap(e graph.Edge, x, y int) ([]float64, error) { return nil, nil }

// MaxWithEdge is the cutoff form of WithEdge.
func (inc *Incremental) MaxWithEdge(e graph.Edge, cutoff float64) (float64, error) { return 0, nil }

// WideningBound lower-bounds a widening's improvement.
func (inc *Incremental) WideningBound(e graph.Edge) float64 { return 0 }

// BaseDelays returns the base-state delay vector.
func (inc *Incremental) BaseDelays() []float64 { return nil }
