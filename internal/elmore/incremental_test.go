package elmore

import (
	"math"
	"testing"

	"nontree/internal/rc"
)

func TestIncrementalMatchesFullSolveOnTrees(t *testing.T) {
	p := rc.Default()
	for seed := int64(0); seed < 6; seed++ {
		topo := randomTree(t, seed, 10)
		inc, err := NewIncremental(topo, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range topo.AbsentEdges() {
			got, err := inc.WithEdge(e)
			if err != nil {
				t.Fatal(err)
			}
			// Reference: add the edge for real and solve from scratch.
			if err := topo.AddEdge(e); err != nil {
				t.Fatal(err)
			}
			l, err := rc.Lump(topo, p, nil)
			if err != nil {
				t.Fatal(err)
			}
			want, err := GraphDelays(topo, l)
			if err != nil {
				t.Fatal(err)
			}
			if err := topo.RemoveEdge(e); err != nil {
				t.Fatal(err)
			}
			for n := range want {
				if math.Abs(got[n]-want[n]) > 1e-9*math.Max(want[n], 1e-30) {
					t.Fatalf("seed %d edge %v node %d: incremental %.9g vs full %.9g",
						seed, e, n, got[n], want[n])
				}
			}
		}
	}
}

func TestIncrementalMatchesFullSolveOnGraphs(t *testing.T) {
	// The evaluator must also work when the base topology already has
	// cycles (LDRG's second and later iterations).
	p := rc.Default()
	topo := randomTree(t, 11, 10)
	for _, e := range topo.AbsentEdges()[:2] {
		if err := topo.AddEdge(e); err != nil {
			t.Fatal(err)
		}
	}
	inc, err := NewIncremental(topo, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range topo.AbsentEdges()[:10] {
		got, err := inc.WithEdge(e)
		if err != nil {
			t.Fatal(err)
		}
		if err := topo.AddEdge(e); err != nil {
			t.Fatal(err)
		}
		l, err := rc.Lump(topo, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := GraphDelays(topo, l)
		if err != nil {
			t.Fatal(err)
		}
		if err := topo.RemoveEdge(e); err != nil {
			t.Fatal(err)
		}
		for n := range want {
			if math.Abs(got[n]-want[n]) > 1e-9*math.Max(want[n], 1e-30) {
				t.Fatalf("edge %v node %d: %.9g vs %.9g", e, n, got[n], want[n])
			}
		}
	}
}

func TestIncrementalRejectsPresentAndDegenerate(t *testing.T) {
	p := rc.Default()
	topo := randomTree(t, 2, 6)
	inc, err := NewIncremental(topo, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	present := topo.Edges()[0]
	if _, err := inc.WithEdge(present); err == nil {
		t.Error("present edge must be rejected")
	}
}
