package core

import (
	"slices"
	"testing"

	"nontree/internal/elmore"
	"nontree/internal/graph"
	"nontree/internal/rc"
	"nontree/internal/trace"
)

// solvedDelays is the fresh full solve of t with e added, the reference
// a staged or adopted solution must keep.
func solvedDelays(t *testing.T, topo *graph.Topology, e *graph.Edge) []float64 {
	t.Helper()
	c := topo.Clone()
	if e != nil {
		if err := c.AddEdge(*e); err != nil {
			t.Fatal(err)
		}
	}
	sol := new(elmore.Solution)
	if err := elmore.Solve(sol, c, rc.Default(), nil); err != nil {
		t.Fatal(err)
	}
	return sol.Delays()
}

// TestResolvesKeepBaseAndStagedWinners is the stale-solution guard on the
// run's rotating full solves. Two scans run back to back on one
// topology, as LDRGWithTaps' edge and tap scans do, each over three edge
// candidates whose stand-in incremental values are all far below the
// threshold, so every candidate is re-solved in index order: first the
// scan's winner, then two losers. A loser's re-solve must land in storage
// that is neither the adopted base, nor the scan's best so far, nor the
// previous scan's winner, which greedy may still commit. After both
// scans each winner's solution and the evaluator's base must equal fresh
// solves bit for bit, and adopting the first scan's winner must install
// exactly its network.
func TestResolvesKeepBaseAndStagedWinners(t *testing.T) {
	seed := randomMST(t, 3535, 12)
	opts := Options{Oracle: elmoreOracle(), Workers: 1}
	evals := 0
	eng, delays, err := newSweepEngine(seed, &opts, nil, opts.objective(), &evals)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.release()
	cur, err := opts.objective().Eval(delays, seed.NumPins())
	if err != nil {
		t.Fatal(err)
	}

	// Rank the absent edges by their full objective, best first.
	edges := candidateEdges(seed, &opts, nil)
	vals := map[graph.Edge]float64{}
	for _, e := range edges {
		d := solvedDelays(t, seed, &e)
		vals[e] = elmore.MaxSinkDelay(d, seed.NumPins())
	}
	slices.SortStableFunc(edges, func(a, b graph.Edge) int {
		switch {
		case vals[a] < vals[b]:
			return -1
		case vals[a] > vals[b]:
			return 1
		}
		return 0
	})
	if vals[edges[1]] >= cur || len(edges) < 6 {
		t.Fatalf("the net needs two improving edges and four more (best %v, %v against %v)", vals[edges[0]], vals[edges[1]], cur)
	}

	stand := make([]float64, seed.NumNodes()) // every incremental value 0
	scan := func(sweep int, cands []graph.Edge) winner {
		t.Helper()
		resolved := 0
		win, ok, err := eng.scan(seed, sweep, cur, candidates{
			n: len(cands),
			full: func(i int, t *graph.Topology) (float64, error) {
				resolved++
				return scoreWithEdge(eng, t, cands[i])
			},
			probe: func(i int) ([]float64, error) { return stand, nil },
			event: func(i int, ev *trace.Event) { ev.U, ev.V = cands[i].U, cands[i].V },
		})
		if err != nil || !ok {
			t.Fatalf("sweep %d: ok %v, err %v", sweep, ok, err)
		}
		if resolved != len(cands) {
			t.Fatalf("sweep %d re-solved %d of %d candidates; the case checks nothing", sweep, resolved, len(cands))
		}
		if got := (graph.Edge{U: win.ev.U, V: win.ev.V}); got != cands[0] {
			t.Fatalf("sweep %d chose %v, want %v", sweep, got, cands[0])
		}
		return win
	}
	check := func(label string, got []float64, e *graph.Edge) {
		t.Helper()
		if err := sameBits(got, solvedDelays(t, seed, e)); err != nil {
			t.Errorf("%s: %v", label, err)
		}
	}

	first := scan(1, []graph.Edge{edges[0], edges[2], edges[3]})
	check("first winner after its scan", first.sol.Delays(), &edges[0])
	second := scan(2, []graph.Edge{edges[1], edges[4], edges[5]})
	check("first winner after the second scan", first.sol.Delays(), &edges[0])
	check("second winner after its scan", second.sol.Delays(), &edges[1])
	check("base after both scans", eng.inc.BaseDelays(), nil)
	if first.sol == second.sol {
		t.Fatal("both winners share one solution")
	}

	if err := seed.AddEdge(edges[0]); err != nil {
		t.Fatal(err)
	}
	if err := eng.adopt(first.sol); err != nil {
		t.Fatal(err)
	}
	got := eng.inc.BaseDelays()
	seed.RemoveEdge(edges[0])
	check("base after adopting the first winner", got, &edges[0])
}
