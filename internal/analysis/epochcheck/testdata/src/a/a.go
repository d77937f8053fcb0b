// Package a exercises epochcheck against the stub graph/elmore packages.
// BuggySweep reconstructs the PR 6 stale-cache bug shape: a greedy sweep
// that commits accepted edges without re-factoring the incremental
// evaluator, so every later iteration probes stale caches.
package a

import (
	"elmore"
	"graph"
)

// BuggySweep is the PR 6 bug reconstruction: WithEdge answers from the
// factorization of the *original* topology on every iteration after the
// first acceptance.
func BuggySweep(t *graph.Topology, cands []graph.Edge) error {
	inc, err := elmore.NewIncremental(t)
	if err != nil {
		return err
	}
	for _, e := range cands {
		d, err := inc.WithEdge(e) // want `WithEdge on inc may answer from a stale factorization`
		if err != nil {
			return err
		}
		if len(d) > 0 {
			if err := t.AddEdge(e); err != nil { // committed mutation, no Refactor
				return err
			}
		}
	}
	return nil
}

// FixedSweep is the corrected protocol: Refactor after every committed
// mutation, before the next probe.
func FixedSweep(t *graph.Topology, cands []graph.Edge) error {
	inc, err := elmore.NewIncremental(t)
	if err != nil {
		return err
	}
	for _, e := range cands {
		d, err := inc.WithEdge(e)
		if err != nil {
			return err
		}
		if len(d) > 0 {
			if err := t.AddEdge(e); err != nil {
				return err
			}
			if err := inc.Refactor(); err != nil {
				return err
			}
		}
	}
	return nil
}

// StraightBuggy: a probe directly after a committed mutation.
func StraightBuggy(t *graph.Topology, inc *elmore.Incremental, e graph.Edge) {
	_ = t.AddEdge(e)
	_, _ = inc.WithEdge(e) // want `WithEdge on inc may answer from a stale factorization`
}

// StraightBuggyTap and StraightBuggyWiden: the same shape for the other
// two probes; a tap's Steiner node is a committed mutation too.
func StraightBuggyTap(t *graph.Topology, inc *elmore.Incremental, e graph.Edge) {
	_ = t.AddSteinerNode(1, 2)
	_, _ = inc.WithTap(e, 1, 2) // want `WithTap on inc may answer from a stale factorization`
}

func StraightBuggyWiden(t *graph.Topology, inc *elmore.Incremental, e graph.Edge) {
	_ = t.RemoveEdge(e)
	_, _ = inc.WithWiden(e) // want `WithWiden on inc may answer from a stale factorization`
}

// StraightBuggyCutoff: a cutoff probe reads the same factorization.
func StraightBuggyCutoff(t *graph.Topology, inc *elmore.Incremental, e graph.Edge) {
	_ = t.AddEdge(e)
	_, _ = inc.MaxWithEdge(e, 1) // want `MaxWithEdge on inc may answer from a stale factorization`
}

// StraightFixed: Refactor restores consistency.
func StraightFixed(t *graph.Topology, inc *elmore.Incremental, e graph.Edge) {
	_ = t.AddEdge(e)
	_ = inc.Refactor()
	_, _ = inc.WithEdge(e)
}

// ProbeThenRevert is the sanctioned probe pattern: all probes precede the
// temporary mutation pair, so nothing stale is ever read.
func ProbeThenRevert(t *graph.Topology, inc *elmore.Incremental, e graph.Edge) {
	_, _ = inc.WithEdge(e)
	_ = t.AddEdge(e)
	_ = t.RemoveEdge(e)
}

// WidthTableBuggy: WSORG-shaped width-map commits invalidate the
// factorization exactly like topology edits.
func WidthTableBuggy(widths map[graph.Edge]int, inc *elmore.Incremental, cands []graph.Edge) {
	for _, e := range cands {
		if inc.WideningBound(e) > 0 { // want `WideningBound on inc may answer from a stale factorization`
			widths[e]++
		}
	}
}

// WidthTableFixed refactors after the committed widening.
func WidthTableFixed(widths map[graph.Edge]int, inc *elmore.Incremental, cands []graph.Edge) {
	for _, e := range cands {
		if inc.WideningBound(e) > 0 {
			widths[e]++
			_ = inc.Refactor()
		}
	}
}

// engine mirrors core.sweepEngine: the evaluator reached through a
// wrapping struct, refactored through a lowercase helper.
type engine struct {
	inc *elmore.Incremental
}

func (eng *engine) refactor() error { return eng.inc.Refactor() }

func (eng *engine) adopt(sol *elmore.Solution) error { return eng.inc.Adopt(sol) }

// EngineSweep is the real sweep shape: probe through eng.inc, commit,
// refactor through the helper. One root (eng) ties them together.
func EngineSweep(t *graph.Topology, cands []graph.Edge) error {
	inc, err := elmore.NewIncremental(t)
	if err != nil {
		return err
	}
	eng := &engine{inc: inc}
	for _, e := range cands {
		d, err := eng.inc.WithEdge(e)
		if err != nil {
			return err
		}
		if len(d) > 0 {
			if err := t.AddEdge(e); err != nil {
				return err
			}
			if err := eng.refactor(); err != nil {
				return err
			}
		}
	}
	return nil
}

// EngineSweepBuggy forgets the helper: the engine root goes stale.
func EngineSweepBuggy(t *graph.Topology, cands []graph.Edge) error {
	inc, err := elmore.NewIncremental(t)
	if err != nil {
		return err
	}
	eng := &engine{inc: inc}
	for _, e := range cands {
		d, err := eng.inc.WithEdge(e) // want `WithEdge on eng may answer from a stale factorization`
		if err != nil {
			return err
		}
		if len(d) > 0 {
			if err := t.AddEdge(e); err != nil {
				return err
			}
		}
	}
	return nil
}

// AdoptSweep is core's protocol: each committed winner's own solution is
// adopted, which starts a new epoch as a Refactor would.
func AdoptSweep(t *graph.Topology, cands []graph.Edge, sols []*elmore.Solution) error {
	inc, err := elmore.NewIncremental(t)
	if err != nil {
		return err
	}
	eng := &engine{inc: inc}
	for i, e := range cands {
		if _, err := eng.inc.WithEdge(e); err != nil {
			return err
		}
		if err := t.AddEdge(e); err != nil {
			return err
		}
		if err := eng.adopt(sols[i]); err != nil {
			return err
		}
	}
	return nil
}

// AdoptSkipped commits a winner whose solution was neither adopted nor
// refactored: the next probe is stale.
func AdoptSkipped(t *graph.Topology, cands []graph.Edge, sols []*elmore.Solution) error {
	inc, err := elmore.NewIncremental(t)
	if err != nil {
		return err
	}
	for i, e := range cands {
		if _, err := inc.WithEdge(e); err != nil { // want `WithEdge on inc may answer from a stale factorization`
			return err
		}
		if err := t.AddEdge(e); err != nil {
			return err
		}
		if sols[i] == nil {
			continue // committed, but no solution to adopt and no Refactor
		}
		if err := inc.Adopt(sols[i]); err != nil {
			return err
		}
	}
	return nil
}

// Allowed demonstrates the escape hatch.
func Allowed(t *graph.Topology, inc *elmore.Incremental, e graph.Edge) {
	_ = t.AddEdge(e)
	//nontree:allow epochcheck fixture exercises the annotation path
	_ = inc.BaseDelays()
}
