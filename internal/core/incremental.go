package core

import (
	"errors"

	"nontree/internal/elmore"
	"nontree/internal/graph"
	"nontree/internal/rc"
)

// IncrementalScorer is the optional DelayOracle extension the sweeps probe
// for: an oracle that can stand up an incremental evaluator over a fixed
// topology. Only ElmoreOracle implements it — the perturbation identities
// are exact for the Elmore model and for no other oracle in this package.
//
// Sweeps over an IncrementalScorer score each candidate as a rank-one
// (edges, widenings) or rank-three (taps) perturbation of the factored
// base state, with lower-bound pruning of widenings and early stops of
// max-delay edge and tap probes; sweeps over any other oracle use full
// solves on the worker pool. Both make byte-identical decisions (see the
// scan rules in sweep.go). A run takes its seed's delays from the
// evaluator's base state and re-solves its leaders with Solve instead of
// calling SinkDelays, so all three must agree bit for bit on the same
// topology and widths.
type IncrementalScorer interface {
	// NewIncrementalSweep prepares incremental evaluation of t under the
	// width assignment over ws's storage, solving the base state into
	// sol. The caller owns the evaluator's lifecycle: after every
	// committed topology or width mutation it must Adopt the mutation's
	// solution or Refactor (probes return elmore.ErrStale until then),
	// report a width mutation with Widened, and stop using the evaluator
	// before it hands ws or sol to another.
	NewIncrementalSweep(ws *elmore.Workspace, sol *elmore.Solution, t *graph.Topology, width rc.WidthFunc) (*elmore.Incremental, error)
	// Solve makes one full solve of t under width into sol. Its Delays
	// equal SinkDelays(t, width) bit for bit, and an evaluator of t may
	// adopt it once t is in that state.
	Solve(sol *elmore.Solution, t *graph.Topology, width rc.WidthFunc) error
}

var _ IncrementalScorer = (*ElmoreOracle)(nil)

// errPruningUnsound reports a pruning audit failure (Options.auditPruning):
// a pruned candidate, scored after the fact, would have been selected by
// the sweep it was pruned from. It indicates a broken bound, never a
// legitimate runtime condition.
var errPruningUnsound = errors.New("core: pruning unsound: a pruned candidate would have been selected")

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
