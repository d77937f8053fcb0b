package elmore

import (
	"math"
	"testing"

	"nontree/internal/geom"
	"nontree/internal/graph"
	"nontree/internal/rc"
)

// fullDelays solves the topology from scratch under a width assignment —
// the reference every incremental evaluation is compared against.
func fullDelays(t *testing.T, topo *graph.Topology, width rc.WidthFunc) []float64 {
	t.Helper()
	l := new(rc.Lumped)
	if err := rc.Lump(l, topo, rc.Default(), width); err != nil {
		t.Fatal(err)
	}
	d, err := GraphDelays(topo, l)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestRefactorInvalidatesColumnCache is the stale-cache regression test:
// prime the evaluator's column cache, mutate the topology, Refactor, and
// demand that subsequent evaluations match a *fresh* evaluator bitwise.
// Before Refactor existed, reusing an evaluator across an accepted edge
// silently served transfer-resistance columns of the previous
// factorization; this test fails against that behaviour.
func TestRefactorInvalidatesColumnCache(t *testing.T) {
	topo := randomTree(t, 41, 12)
	p := rc.Default()
	inc, err := NewIncremental(new(Workspace), new(Solution), topo, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if inc.Epoch() != 1 {
		t.Fatalf("fresh evaluator epoch = %d, want 1", inc.Epoch())
	}

	// Prime the cache: score every absent edge once.
	absent := topo.AbsentEdges()
	for _, e := range absent {
		if _, err := inc.WithEdge(e); err != nil {
			t.Fatal(err)
		}
	}

	// Commit a modification, changing every transfer resistance.
	if err := topo.AddEdge(absent[0]); err != nil {
		t.Fatal(err)
	}
	if err := inc.Refactor(); err != nil {
		t.Fatal(err)
	}
	if inc.Epoch() != 2 {
		t.Fatalf("epoch after Refactor = %d, want 2", inc.Epoch())
	}

	fresh, err := NewIncremental(new(Workspace), new(Solution), topo, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range topo.AbsentEdges() {
		got, err := inc.WithEdge(e)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.WithEdge(e)
		if err != nil {
			t.Fatal(err)
		}
		for n := range want {
			if got[n] != want[n] {
				t.Fatalf("edge %v node %d: refactored evaluator %v != fresh evaluator %v (stale cache?)",
					e, n, got[n], want[n])
			}
		}
	}
}

// TestRefactorTracksNodeGrowth covers the tap lifecycle: committing a tap
// adds a Steiner node, so Refactor must resize its caches, not just clear
// them.
func TestRefactorTracksNodeGrowth(t *testing.T) {
	topo := randomTree(t, 42, 8)
	p := rc.Default()
	inc, err := NewIncremental(new(Workspace), new(Solution), topo, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	e := topo.Edges()[1]
	a, b := topo.Point(e.U), topo.Point(e.V)
	s := topo.AddSteinerNode(geom.Point{X: a.X + (b.X-a.X)*0.375, Y: (a.Y + b.Y) / 2})
	if err := topo.RemoveEdge(e); err != nil {
		t.Fatal(err)
	}
	for _, ne := range []graph.Edge{{U: e.U, V: s}, {U: s, V: e.V}, {U: 0, V: s}} {
		if err := topo.AddEdge(ne); err != nil {
			t.Fatal(err)
		}
	}
	if err := inc.Refactor(); err != nil {
		t.Fatal(err)
	}
	want := fullDelays(t, topo, nil)
	got := inc.BaseDelays()
	for n := range want {
		if got[n] != want[n] {
			t.Fatalf("node %d after tap refactor: %v != %v", n, got[n], want[n])
		}
	}
	// The grown caches must serve evaluations involving the new node.
	for _, ae := range topo.AbsentEdges() {
		if ae.U == s || ae.V == s {
			if _, err := inc.WithEdge(ae); err != nil {
				t.Fatalf("evaluating %v touching new node: %v", ae, err)
			}
			break
		}
	}
}

// TestWorkspaceServesNoStaleColumn hands one workspace to evaluator after
// evaluator, as a daemon does across requests: a tap grows the first
// network, the second is smaller and the third larger than either. Every
// column and probe of each must equal a fresh evaluator's bit for bit.
// Each evaluator's own epoch count restarts at 1, so a cache validated by
// that count alone would serve the previous network's columns here.
func TestWorkspaceServesNoStaleColumn(t *testing.T) {
	p := rc.Default()
	ws := new(Workspace)
	tapped := randomTree(t, 43, 12)
	var tapEdge graph.Edge
	for _, e := range tapped.Edges() {
		if e.U != 0 {
			tapEdge = e
			break
		}
	}
	a, b := tapped.Point(tapEdge.U), tapped.Point(tapEdge.V)
	for i, topo := range []*graph.Topology{tapped, randomTree(t, 44, 9), randomTree(t, 45, 16)} {
		inc, err := NewIncremental(ws, new(Solution), topo, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		check := func(stage string) {
			fresh, err := NewIncremental(new(Workspace), new(Solution), topo, p, nil)
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k < topo.NumNodes(); k++ {
				got, want := inc.Column(k), fresh.Column(k)
				if len(got) != len(want) {
					t.Fatalf("net %d %s: column %d has %d entries, want %d", i, stage, k, len(got), len(want))
				}
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("net %d %s: column %d entry %d: %v, want %v (stale column?)", i, stage, k, j, got[j], want[j])
					}
				}
			}
			for _, e := range topo.AbsentEdges() {
				got, err := inc.MaxWithEdge(e, math.Inf(1))
				if err != nil {
					t.Fatal(err)
				}
				want, err := fresh.MaxWithEdge(e, math.Inf(1))
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("net %d %s: edge %v: %v, want %v", i, stage, e, got, want)
				}
			}
		}
		check("before commit")
		if i > 0 {
			continue
		}
		// Commit a tap, growing the network by one node, and adopt it.
		s := topo.AddSteinerNode(geom.Point{X: a.X + (b.X-a.X)*0.375, Y: (a.Y + b.Y) / 2})
		if err := topo.RemoveEdge(tapEdge); err != nil {
			t.Fatal(err)
		}
		for _, ne := range []graph.Edge{{U: tapEdge.U, V: s}, {U: s, V: tapEdge.V}, {U: 0, V: s}} {
			if err := topo.AddEdge(ne); err != nil {
				t.Fatal(err)
			}
		}
		if err := inc.Refactor(); err != nil {
			t.Fatal(err)
		}
		check("after tap")
	}
}
