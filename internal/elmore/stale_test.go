package elmore

import (
	"errors"
	"math"
	"testing"

	"nontree/internal/geom"
	"nontree/internal/graph"
	"nontree/internal/rc"
)

// baseDelays is inc.BaseDelays, failing the test on an error.
func baseDelays(t *testing.T, inc *Incremental) []float64 {
	t.Helper()
	base, err := inc.BaseDelays()
	if err != nil {
		t.Fatal(err)
	}
	return base
}

// staleFixture is a 12-pin tree, an evaluator over it under a width map,
// and one candidate of each probe kind: an absent edge, a present edge to
// widen, and a tap on a present edge away from the source.
type staleFixture struct {
	topo   *graph.Topology
	widths map[graph.Edge]int
	inc    *Incremental
	absent graph.Edge
	widen  graph.Edge
	tap    graph.Edge
	pt     geom.Point
}

func newStaleFixture(t *testing.T) *staleFixture {
	t.Helper()
	f := &staleFixture{topo: randomTree(t, 77, 12), widths: map[graph.Edge]int{}}
	width := func(e graph.Edge) float64 { return float64(1 + f.widths[e.Canon()]) }
	inc, err := NewIncremental(new(Workspace), new(Solution), f.topo, rc.Default(), width)
	if err != nil {
		t.Fatal(err)
	}
	f.inc, f.absent = inc, f.topo.AbsentEdges()[0]
	edges := f.topo.Edges()
	f.widen = edges[0]
	for _, e := range edges {
		if e.U != 0 && e.V != 0 {
			a, b := f.topo.Point(e.U), f.topo.Point(e.V)
			f.tap, f.pt = e, geom.Point{X: (a.X + b.X) / 2, Y: (a.Y + b.Y) / 2}
			break
		}
	}
	if f.tap == (graph.Edge{}) {
		t.Fatal("the tree has no edge away from the source; the fixture checks no tap")
	}
	return f
}

// probes runs every probe of the evaluator once and returns their errors
// by name.
func (f *staleFixture) probes() map[string]error {
	errs := map[string]error{}
	_, errs["WithEdge"] = f.inc.WithEdge(f.absent)
	_, errs["MaxWithEdge"] = f.inc.MaxWithEdge(f.absent, 1)
	_, errs["WithWiden"] = f.inc.WithWiden(f.widen)
	_, errs["WideningBound"] = f.inc.WideningBound(f.widen)
	_, errs["WithTap"] = f.inc.WithTap(f.tap, f.pt)
	_, errs["MaxWithTap"] = f.inc.MaxWithTap(f.tap, f.pt, 1)
	_, errs["BaseDelays"] = f.inc.BaseDelays()
	return errs
}

// commitEdge is a helper that commits an edge on the caller's topology,
// out of sight of the code that probes afterwards.
func commitEdge(topo *graph.Topology, e graph.Edge) error { return topo.AddEdge(e) }

// TestProbesAfterUnadoptedCommitAreStale is the runtime form of every
// stale shape: a topology or width commit that no Adopt or Refactor
// follows must make every probe return ErrStale, wherever the commit
// happened, and a Refactor must make every probe answer again.
func TestProbesAfterUnadoptedCommitAreStale(t *testing.T) {
	cases := []struct {
		name   string
		commit func(f *staleFixture) error
	}{
		// A probe directly after an added edge, the shape of a sweep
		// that commits its winner and probes on.
		{"AddEdge", func(f *staleFixture) error { return f.topo.AddEdge(f.absent) }},
		// A removal, here of an edge the evaluator has adopted.
		{"RemoveEdge", func(f *staleFixture) error {
			if err := f.topo.AddEdge(f.absent); err != nil {
				return err
			}
			if err := f.inc.Refactor(); err != nil {
				return err
			}
			return f.topo.RemoveEdge(f.absent)
		}},
		// A tap's Steiner node is a commit too, wired or not.
		{"AddSteinerNode", func(f *staleFixture) error {
			f.topo.AddSteinerNode(geom.Point{X: -1, Y: -1})
			return nil
		}},
		// A WSORG width commit invalidates the factorization exactly like
		// a topology edit.
		{"width commit", func(f *staleFixture) error {
			f.widths[f.widen]++
			f.inc.Widened()
			return nil
		}},
		// Copying another state over the topology replaces it wholesale.
		{"CopyFrom", func(f *staleFixture) error {
			c := f.topo.Clone()
			if err := c.AddEdge(f.absent); err != nil {
				return err
			}
			f.topo.CopyFrom(c)
			return nil
		}},
		// A commit inside a helper call, which no intra-procedural check
		// of the probing code can see.
		{"helper commit", func(f *staleFixture) error { return commitEdge(f.topo, f.absent) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := newStaleFixture(t)
			for name, err := range f.probes() {
				if err != nil {
					t.Fatalf("%s before the commit: %v", name, err)
				}
			}
			if err := tc.commit(f); err != nil {
				t.Fatal(err)
			}
			for name, err := range f.probes() {
				if !errors.Is(err, ErrStale) {
					t.Errorf("%s after the commit: err %v, want ErrStale", name, err)
				}
			}
			if err := f.inc.Refactor(); err != nil {
				t.Fatal(err)
			}
			// Probes may now fail on their own terms (an added edge is no
			// longer absent), but none is stale.
			for name, err := range f.probes() {
				if errors.Is(err, ErrStale) {
					t.Errorf("%s after Refactor: still stale", name)
				}
			}
		})
	}
}

// TestAdoptSkippedIsStale commits two winners in turn, each with its own
// full solve, but skips the second adoption: the first adoption leaves
// the probes fresh, the skipped one leaves them stale.
func TestAdoptSkippedIsStale(t *testing.T) {
	f := newStaleFixture(t)
	absent := f.topo.AbsentEdges()
	for i, e := range absent[:2] {
		if _, err := f.inc.WithEdge(e); err != nil {
			t.Fatalf("commit %d: probe before it: %v", i, err)
		}
		if err := f.topo.AddEdge(e); err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			break // committed, but neither adopted nor refactored
		}
		sol := new(Solution)
		if err := Solve(sol, f.topo, rc.Default(), nil); err != nil {
			t.Fatal(err)
		}
		if err := f.inc.Adopt(sol); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.inc.WithEdge(absent[2]); !errors.Is(err, ErrStale) {
		t.Fatalf("probe after a skipped adoption: err %v, want ErrStale", err)
	}
}

// TestSanctionedProbeShapesStayFresh pins the shapes that must not be
// stale: a probe, then a temporary add and remove, then more probes, as a
// sweep's leader re-solves on the live topology do between its probes,
// and reads of the topology between probes.
func TestSanctionedProbeShapesStayFresh(t *testing.T) {
	f := newStaleFixture(t)
	want, err := f.inc.WithEdge(f.absent)
	if err != nil {
		t.Fatal(err)
	}
	want = append([]float64(nil), want...)
	for _, e := range f.topo.AbsentEdges() {
		if err := f.topo.AddEdge(e); err != nil {
			t.Fatal(err)
		}
		if err := f.topo.RemoveEdge(e); err != nil {
			t.Fatal(err)
		}
	}
	_ = f.topo.Edges()
	_ = f.topo.Connected()
	_ = f.topo.Clone()
	for name, err := range f.probes() {
		if err != nil {
			t.Errorf("%s after add-then-remove: %v", name, err)
		}
	}
	got, err := f.inc.WithEdge(f.absent)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("node %d: %v after the revert, %v before", i, got[i], want[i])
		}
	}
}
