package elmore

import (
	"fmt"
	"math"
	"testing"

	"nontree/internal/geom"
	"nontree/internal/rc"
)

func TestIncrementalMatchesFullSolveOnTrees(t *testing.T) {
	p := rc.Default()
	for seed := int64(0); seed < 6; seed++ {
		topo := randomTree(t, seed, 10)
		inc, err := NewIncremental(new(Workspace), new(Solution), topo, p, nil)
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
			l := new(rc.Lumped)
			if err := rc.Lump(l, topo, p, nil); err != nil {
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
	inc, err := NewIncremental(new(Workspace), new(Solution), topo, p, nil)
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
		l := new(rc.Lumped)
		if err := rc.Lump(l, topo, p, nil); err != nil {
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
	inc, err := NewIncremental(new(Workspace), new(Solution), topo, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	present := topo.Edges()[0]
	if _, err := inc.WithEdge(present); err == nil {
		t.Error("present edge must be rejected")
	}
}

// TestCutoffProbesMatchFullMax pins the cutoff probes' contract against
// the full-vector probes they share their arithmetic with: with no cutoff
// they return MaxSinkDelay of WithEdge's or WithTap's delays bit for bit,
// a result at most the cutoff is that same full max, and a result above
// it is a lower bound on it. The sinks are visited in descending base
// delay, ties to the lower index.
func TestCutoffProbesMatchFullMax(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		topo := randomTree(t, 40+seed, 15)
		inc, err := NewIncremental(new(Workspace), new(Solution), topo, rc.Default(), nil)
		if err != nil {
			t.Fatal(err)
		}
		order, base := inc.sinkOrder(), inc.BaseDelays()
		if len(order) != topo.NumPins()-1 {
			t.Fatalf("seed %d: %d sinks in order, want %d", seed, len(order), topo.NumPins()-1)
		}
		for k := 1; k < len(order); k++ {
			a, b := order[k-1], order[k]
			if base[a] < base[b] || (base[a] == base[b] && a > b) { //nontree:allow floatcmp an exact tie must go to the lower index
				t.Fatalf("seed %d: sink %d (%v) ordered before sink %d (%v)", seed, a, base[a], b, base[b])
			}
		}
		type probe struct {
			name string
			full func() ([]float64, error)
			max  func(cutoff float64) (float64, error)
		}
		var probes []probe
		for _, e := range topo.AbsentEdges() {
			probes = append(probes, probe{fmt.Sprint("edge ", e),
				func() ([]float64, error) { return inc.WithEdge(e) },
				func(c float64) (float64, error) { return inc.MaxWithEdge(e, c) }})
		}
		for _, e := range topo.Edges() {
			a, b := topo.Point(e.U), topo.Point(e.V)
			pt := geom.Point{X: (3*a.X + b.X) / 4, Y: (a.Y + 3*b.Y) / 4}
			if e.U == 0 || e.V == 0 || pt.Eq(a) || pt.Eq(b) || pt.Eq(topo.Point(0)) {
				continue
			}
			probes = append(probes, probe{fmt.Sprint("tap ", e),
				func() ([]float64, error) { return inc.WithTap(e, pt) },
				func(c float64) (float64, error) { return inc.MaxWithTap(e, pt, c) }})
		}
		stops := 0
		for _, p := range probes {
			delays, err := p.full()
			if err != nil {
				t.Fatal(err)
			}
			full := MaxSinkDelay(delays, topo.NumPins())
			for _, cutoff := range []float64{math.Inf(1), full, math.Nextafter(full, 0), 0.9 * full, base[order[0]], 0} {
				got, err := p.max(cutoff)
				if err != nil {
					t.Fatal(err)
				}
				switch {
				case got <= cutoff && math.Float64bits(got) != math.Float64bits(full):
					t.Errorf("seed %d %s cutoff %v: %v, want the full max %v", seed, p.name, cutoff, got, full)
				case got > cutoff && got > full:
					t.Errorf("seed %d %s cutoff %v: stopped at %v, above the full max %v", seed, p.name, cutoff, got, full)
				case got > cutoff:
					stops++
				}
			}
		}
		if stops == 0 {
			t.Errorf("seed %d: no probe stopped; the case checks nothing", seed)
		}
	}
}
