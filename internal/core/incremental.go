package core

import (
	"errors"

	"nontree/internal/elmore"
	"nontree/internal/graph"
	"nontree/internal/rc"
)

// Scoring selects how the greedy sweeps score candidates. The sweeps spend
// essentially all of their time asking "what would the objective be with
// this one modification applied?" — a question elmore.Incremental answers
// as a rank-one (edges, widenings) or rank-three (taps) perturbation of the
// factored base state instead of a full solve per candidate, with
// lower-bound pruning on top. Perturbation values only select the winner,
// which is re-scored by a full solve, so every mode makes byte-identical
// decisions (see the scan rules in sweep.go). Pruning decisions are
// observable: candidate_pruned events and CtrCandidatesPruned.
type Scoring int

const (
	// ScoringAuto (the default) scores candidates incrementally, in one
	// sequential scan, whenever the oracle supports it (see
	// IncrementalScorer), and with full solves otherwise.
	ScoringAuto Scoring = iota
	// ScoringFull scores every candidate with one full oracle solve, on
	// the worker pool of Options.Workers goroutines.
	ScoringFull
	// ScoringIncrementalDebug is ScoringAuto plus a soundness audit: every
	// pruned candidate is scored anyway (after the sweep, so the audit
	// cannot perturb decisions) and the sweep fails with ErrPruningUnsound
	// if any pruned candidate would have been selected. Test-only: it
	// defeats the point of pruning and errors if the oracle has no
	// incremental support.
	ScoringIncrementalDebug
)

// IncrementalScorer is the optional DelayOracle extension the sweeps probe
// for: an oracle that can stand up an incremental evaluator over a fixed
// topology. Only ElmoreOracle implements it — the perturbation identities
// are exact for the Elmore model and for no other oracle in this package.
type IncrementalScorer interface {
	// NewIncrementalSweep prepares incremental evaluation of t under the
	// width assignment. The caller owns the evaluator's lifecycle: it must
	// Refactor after every committed topology or width mutation.
	NewIncrementalSweep(t *graph.Topology, width rc.WidthFunc) (*elmore.Incremental, error)
}

// ErrPruningUnsound reports a ScoringIncrementalDebug audit failure: a
// pruned candidate, scored after the fact, would have been selected by the
// sweep it was pruned from. It indicates a broken bound, never a
// legitimate runtime condition.
var ErrPruningUnsound = errors.New("core: pruning unsound: a pruned candidate would have been selected")

// pruningFactor translates a per-node delay-improvement bound into an
// objective-improvement bound: if no node's delay can improve by more than
// B, the objective cannot improve by more than factor·B. Returns ok=false
// for objectives without a safe factor — pruning is then disabled
// (incremental scoring still applies).
func pruningFactor(obj Objective) (factor float64, ok bool) {
	switch o := obj.(type) {
	case MaxDelayObjective:
		// max_i t_i drops by at most max_i (t_i − t'_i) ≤ B.
		return 1, true
	case *WeightedDelayObjective:
		if o.Alphas == nil {
			// nil means "uniform over however many sinks show up" — the
			// factor would depend on the topology, so skip pruning.
			return 0, false
		}
		sum := 0.0
		for _, a := range o.Alphas {
			if a < 0 {
				// A negative weight rewards *increasing* that sink's delay;
				// the improvement bound direction no longer holds.
				return 0, false
			}
			sum += a
		}
		return sum, true
	}
	return 0, false
}
