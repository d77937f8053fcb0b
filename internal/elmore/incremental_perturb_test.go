package elmore

import (
	"math"
	"testing"

	"nontree/internal/fpcmp"
	"nontree/internal/geom"
	"nontree/internal/graph"
	"nontree/internal/rc"
)

// relTol is the agreement demanded between a perturbation identity and a
// from-scratch solve: both are exact in real arithmetic, so only rounding
// separates them. 1e-9 relative leaves three orders of magnitude of
// headroom over typical double-precision solve noise.
const relTol = 1e-9

func assertDelaysClose(t *testing.T, label string, got, want []float64) {
	t.Helper()
	for n := range want {
		if math.Abs(got[n]-want[n]) > relTol*math.Max(want[n], 1e-30) {
			t.Fatalf("%s node %d: incremental %.12g vs full %.12g", label, n, got[n], want[n])
		}
	}
}

func TestWithWidenMatchesFullSolve(t *testing.T) {
	p := rc.Default()
	for seed := int64(20); seed < 24; seed++ {
		topo := randomTree(t, seed, 9)
		// A couple of cycles and a non-uniform width map make the base
		// state representative of a mid-run WSORG sweep.
		for _, e := range topo.AbsentEdges()[:2] {
			if err := topo.AddEdge(e); err != nil {
				t.Fatal(err)
			}
		}
		widths := map[graph.Edge]int{}
		for i, e := range topo.Edges() {
			widths[e] = 1 + i%3
		}
		widthFn := func(e graph.Edge) float64 { return float64(widths[e.Canon()]) }

		inc, err := NewIncremental(new(Workspace), new(Solution), topo, p, widthFn)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range topo.Edges() {
			got, err := inc.WithWiden(e)
			if err != nil {
				t.Fatal(err)
			}
			widths[e]++
			want := fullDelays(t, topo, widthFn)
			widths[e]--
			assertDelaysClose(t, e.String(), got, want)
		}
	}
}

func TestWithTapMatchesFullSolve(t *testing.T) {
	p := rc.Default()
	for seed := int64(30); seed < 34; seed++ {
		topo := randomTree(t, seed, 9)
		inc, err := NewIncremental(new(Workspace), new(Solution), topo, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		src := topo.Point(0)
		for _, e := range topo.Edges() {
			if e.U == 0 || e.V == 0 {
				continue
			}
			a, b := topo.Point(e.U), topo.Point(e.V)
			pt := geom.Point{
				X: math.Min(a.X, b.X) + math.Abs(b.X-a.X)*0.25,
				Y: math.Min(a.Y, b.Y) + math.Abs(b.Y-a.Y)*0.75,
			}
			if pt.Eq(a) || pt.Eq(b) || pt.Eq(src) {
				continue
			}
			got, err := inc.WithTap(e, pt)
			if err != nil {
				t.Fatal(err)
			}
			// Reference: build the tapped topology for real.
			c := topo.Clone()
			s := c.AddSteinerNode(pt)
			if err := c.RemoveEdge(e); err != nil {
				t.Fatal(err)
			}
			for _, ne := range []graph.Edge{{U: e.U, V: s}, {U: s, V: e.V}, {U: 0, V: s}} {
				if err := c.AddEdge(ne); err != nil {
					t.Fatal(err)
				}
			}
			want := fullDelays(t, c, nil)
			// The incremental vector is indexed by the original nodes; the
			// reference has one extra (the Steiner node, last).
			assertDelaysClose(t, e.String(), got, want[:len(got)])
		}
	}
}

// TestWideningBoundIsSound checks the pruning bound's defining inequality
// on a seeded corpus: no node's delay improves by more than WideningBound
// when the edge is actually widened. The bound must hold for every edge,
// not just plausible ones — pruning correctness rides on it.
func TestWideningBoundIsSound(t *testing.T) {
	p := rc.Default()
	for seed := int64(60); seed < 64; seed++ {
		topo := randomTree(t, seed, 10)
		widths := map[graph.Edge]int{}
		for i, e := range topo.Edges() {
			widths[e] = 1 + i%2
		}
		widthFn := func(e graph.Edge) float64 { return float64(widths[e.Canon()]) }
		inc, err := NewIncremental(new(Workspace), new(Solution), topo, p, widthFn)
		if err != nil {
			t.Fatal(err)
		}
		base := inc.BaseDelays()
		for _, e := range topo.Edges() {
			bound := inc.WideningBound(e)
			after, err := inc.WithWiden(e)
			if err != nil {
				t.Fatal(err)
			}
			for n := range after {
				if improvement := base[n] - after[n]; improvement > bound*(1+relTol) {
					t.Fatalf("seed %d edge %v node %d: improvement %.12g exceeds bound %.12g",
						seed, e, n, improvement, bound)
				}
			}
		}
	}
}

// FuzzIncrementalVsFull drives the three perturbation identities with
// fuzzer-chosen nets and operations and cross-checks each against a
// from-scratch solve within fpcmp tolerance. The seed corpus below pins
// one representative input per operation; CI extends it with a timed
// fuzzing pass.
func FuzzIncrementalVsFull(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(0), uint16(0))
	f.Add(int64(2), uint8(10), uint8(1), uint16(3))
	f.Add(int64(3), uint8(12), uint8(2), uint16(1))
	f.Add(int64(1994), uint8(16), uint8(0), uint16(9))
	f.Fuzz(func(t *testing.T, seed int64, pins, op uint8, idx uint16) {
		numPins := 4 + int(pins)%13 // 4..16
		topo := fuzzTopology(t, seed, numPins)
		p := rc.Default()
		inc, err := NewIncremental(new(Workspace), new(Solution), topo, p, nil)
		if err != nil {
			t.Skip() // degenerate net (coincident pins etc.)
		}
		switch op % 3 {
		case 0: // edge addition
			cands := topo.AbsentEdges()
			if len(cands) == 0 {
				t.Skip()
			}
			e := cands[int(idx)%len(cands)]
			got, err := inc.WithEdge(e)
			if err != nil {
				t.Skip()
			}
			if err := topo.AddEdge(e); err != nil {
				t.Fatal(err)
			}
			want := fuzzFullDelays(t, topo)
			compareFuzz(t, got, want)
		case 1: // widening
			cands := topo.Edges()
			e := cands[int(idx)%len(cands)]
			got, err := inc.WithWiden(e)
			if err != nil {
				t.Skip()
			}
			overlay := func(x graph.Edge) float64 {
				if x.Canon() == e {
					return 2
				}
				return 1
			}
			l := new(rc.Lumped)
			if err := rc.Lump(l, topo, p, overlay); err != nil {
				t.Fatal(err)
			}
			want, err := GraphDelays(topo, l)
			if err != nil {
				t.Fatal(err)
			}
			compareFuzz(t, got, want)
		case 2: // tap
			cands := topo.Edges()
			e := cands[int(idx)%len(cands)]
			if e.U == 0 || e.V == 0 {
				t.Skip()
			}
			a, b := topo.Point(e.U), topo.Point(e.V)
			pt := geom.Point{X: (a.X + b.X) / 2, Y: (a.Y + b.Y) / 2}
			if pt.Eq(a) || pt.Eq(b) || pt.Eq(topo.Point(0)) {
				t.Skip()
			}
			got, err := inc.WithTap(e, pt)
			if err != nil {
				t.Skip() // degenerate geometry is allowed to error, not mis-solve
			}
			s := topo.AddSteinerNode(pt)
			if err := topo.RemoveEdge(e); err != nil {
				t.Fatal(err)
			}
			for _, ne := range []graph.Edge{{U: e.U, V: s}, {U: s, V: e.V}, {U: 0, V: s}} {
				if err := topo.AddEdge(ne); err != nil {
					t.Fatal(err)
				}
			}
			want := fuzzFullDelays(t, topo)
			compareFuzz(t, got, want[:len(got)])
		}
	})
}

func fuzzTopology(t *testing.T, seed int64, pins int) *graph.Topology {
	t.Helper()
	topo := randomTree(t, seed, pins)
	// Every other net gets a cycle so non-tree base states are covered.
	if seed%2 == 0 {
		if abs := topo.AbsentEdges(); len(abs) > 0 {
			i := int(uint64(seed) / 2 % uint64(len(abs)))
			if err := topo.AddEdge(abs[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	return topo
}

func fuzzFullDelays(t *testing.T, topo *graph.Topology) []float64 {
	t.Helper()
	l := new(rc.Lumped)
	if err := rc.Lump(l, topo, rc.Default(), nil); err != nil {
		t.Fatal(err)
	}
	d, err := GraphDelays(topo, l)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func compareFuzz(t *testing.T, got, want []float64) {
	t.Helper()
	for n := range want {
		// Delays are O(1e-9) s; compare relative to their magnitude, with
		// fpcmp's scale floor preventing a vacuous absolute comparison.
		if !fpcmp.EqTol(got[n]/1e-9, want[n]/1e-9, 1e-7) {
			t.Fatalf("node %d: incremental %.15g vs full %.15g", n, got[n], want[n])
		}
	}
}
