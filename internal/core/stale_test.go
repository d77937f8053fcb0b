package core

import (
	"errors"
	"testing"

	"nontree/internal/elmore"
	"nontree/internal/graph"
)

// TestSweepAfterUnadoptedCommitIsStale runs the engine's sweeps after a
// winner has been committed to the live topology, by accept or behind
// the engine's back. Only accept adopts the winner's solution; after any
// other commit, a plain AddEdge or a tap through the applyTap helper, the
// next edge and tap sweeps must fail with elmore.ErrStale instead of
// scoring against the factorization of the routing before the commit.
func TestSweepAfterUnadoptedCommitIsStale(t *testing.T) {
	cases := []struct {
		name   string
		commit func(eng *sweepEngine, topo *graph.Topology, win winner) error
		stale  bool
	}{
		{"accept", func(eng *sweepEngine, topo *graph.Topology, win winner) error {
			return eng.accept(topo, &Result{}, win)
		}, false},
		{"AddEdge", func(eng *sweepEngine, topo *graph.Topology, win winner) error {
			return topo.AddEdge(graph.Edge{U: win.ev.U, V: win.ev.V})
		}, true},
		{"applyTap helper", func(eng *sweepEngine, topo *graph.Topology, win winner) error {
			c := tapCandidates(topo, nil)[0]
			_, err := applyTap(topo, c.edge, c.point)
			return err
		}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			topo := randomMST(t, 4242, 10)
			opts := Options{Oracle: elmoreOracle(), Workers: 1}
			evals := 0
			eng, delays, err := newSweepEngine(topo, &opts, nil, opts.objective(), &evals)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.release()
			cur, err := opts.objective().Eval(delays, topo.NumPins())
			if err != nil {
				t.Fatal(err)
			}
			win, ok, err := bestAddition(topo, &opts, cur, 1, eng)
			if err != nil || !ok {
				t.Fatalf("first sweep: ok %v, err %v", ok, err)
			}
			// The tap sweep of the same epoch follows the edge sweep's
			// leader re-solves, each an add and a remove on topo: it must
			// not be stale.
			if _, _, err := bestTap(topo, cur, 1, eng); err != nil {
				t.Fatalf("tap sweep after the edge sweep: %v", err)
			}
			if err := tc.commit(eng, topo, win); err != nil {
				t.Fatal(err)
			}
			_, _, edgeErr := bestAddition(topo, &opts, win.ev.After, 2, eng)
			_, _, tapErr := bestTap(topo, win.ev.After, 2, eng)
			for name, err := range map[string]error{"edge sweep": edgeErr, "tap sweep": tapErr} {
				if tc.stale && !errors.Is(err, elmore.ErrStale) {
					t.Errorf("%s after the commit: err %v, want elmore.ErrStale", name, err)
				}
				if !tc.stale && err != nil {
					t.Errorf("%s after the commit: %v", name, err)
				}
			}
		})
	}
}
