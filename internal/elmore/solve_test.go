package elmore

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"nontree/internal/graph"
	"nontree/internal/linalg"
	"nontree/internal/rc"
)

// freshDelays is the reference for a reused solve: GraphDelays' arithmetic
// on a fresh Lumped and a fresh Conductance.
func freshDelays(topo *graph.Topology, p rc.Params, width rc.WidthFunc) ([]float64, error) {
	l := new(rc.Lumped)
	if err := rc.Lump(l, topo, p, width); err != nil {
		return nil, err
	}
	c := new(Conductance)
	if err := c.Factor(topo, l); err != nil {
		return nil, err
	}
	return c.Delays(nil, l)
}

// sameSolve fails unless a solve into reused storage and the fresh
// reference agree: the same error, or delays equal bit for bit.
func sameSolve(label string, sol *Solution, err error, want []float64, wantErr error) error {
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		return fmt.Errorf("%s: error %v, fresh %v", label, err, wantErr)
	}
	if err != nil {
		return nil
	}
	got := sol.Delays()
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d delays, fresh %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("%s: node %d delay %v, fresh %v", label, i, got[i], want[i])
		}
	}
	return nil
}

// withExtraEdges adds up to k absent edges of topo, chosen by rng, so the
// network has cycles.
func withExtraEdges(topo *graph.Topology, rng *rand.Rand, k int) {
	absent := topo.AbsentEdges()
	for ; k > 0 && len(absent) > 0; k-- {
		i := rng.Intn(len(absent))
		_ = topo.AddEdge(absent[i])
		absent = append(absent[:i], absent[i+1:]...)
	}
}

// TestSolveIntoReusedSolutionMatchesFresh solves random 4–60-pin nets,
// trees and graphs with cycles, at unit and varied widths, one after
// another into one Solution, so its lumped network, matrix and factors
// pass between networks that grow and shrink. Each solve's delays must
// equal GraphDelays' arithmetic on a fresh Lumped bit for bit.
func TestSolveIntoReusedSolutionMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	p := rc.Default()
	widths := func(e graph.Edge) float64 { return float64(1 + (e.U+2*e.V)%3) }
	var sol Solution
	for trial := 0; trial < 60; trial++ {
		pins := 4 + rng.Intn(57)
		topo := randomTree(t, int64(3500+trial), pins)
		if trial%2 == 1 {
			withExtraEdges(topo, rng, 1+rng.Intn(pins))
		}
		var width rc.WidthFunc
		if trial%3 == 2 {
			width = widths
		}
		want, wantErr := freshDelays(topo, p, width)
		err := Solve(&sol, topo, p, width)
		if err := sameSolve(fmt.Sprintf("trial %d (%d pins)", trial, pins), &sol, err, want, wantErr); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSolveLUFallbackInReusedSolution drives nets whose driver resistance
// is so large that the grounded conductance matrix fails Cholesky's pivot
// test by rounding and takes FactorSPDInto's pivoted-LU fallback, between
// nets that factor by Cholesky, all into one Solution. Every solve must
// equal the fresh reference, and a warm solve allocates nothing on either
// path.
func TestSolveLUFallbackInReusedSolution(t *testing.T) {
	var sol Solution
	paths := map[string]int{}
	var warmLU, warmCh func()
	for seed := int64(0); seed < 80; seed++ {
		topo := randomTree(t, seed, 4+int(seed%5))
		for k := 0; k < 300; k++ {
			p := rc.Default()
			p.DriverResistance = 1e9 * float64(int64(1)<<(k%30)) * (1 + float64(k)*0.013)
			want, wantErr := freshDelays(topo, p, nil)
			err := Solve(&sol, topo, p, nil)
			label := fmt.Sprintf("seed %d driver %g Ω", seed, p.DriverResistance)
			if err := sameSolve(label, &sol, err, want, wantErr); err != nil {
				t.Fatal(err)
			}
			if err != nil {
				continue
			}
			run := func() {
				if err := Solve(&sol, topo, p, nil); err != nil {
					t.Fatal(err)
				}
			}
			if _, ok := sol.cond.f.(*linalg.LU); ok {
				paths["lu"]++
				warmLU = run
			} else {
				paths["cholesky"]++
				warmCh = run
			}
		}
	}
	if paths["lu"] == 0 || paths["cholesky"] == 0 {
		t.Fatalf("solves by path %v: both paths must be taken", paths)
	}
	for name, run := range map[string]func(){"lu": warmLU, "cholesky": warmCh} {
		run()
		if n := testing.AllocsPerRun(20, run); n != 0 {
			t.Errorf("a warm %s solve makes %v allocations, want 0", name, n)
		}
	}
}

// TestWarmSolveAllocatesNothing: a warm Solve into a warm Solution lumps,
// assembles, factors and solves in the solution's own storage, with unit
// widths or a width function, on a tree or a graph with cycles.
func TestWarmSolveAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	p := rc.Default()
	widths := func(e graph.Edge) float64 { return float64(1 + (e.U+e.V)%2) }
	for _, pins := range []int{5, 30, 60} {
		topo := randomTree(t, int64(pins), pins)
		withExtraEdges(topo, rng, pins/5)
		for _, width := range []rc.WidthFunc{nil, widths} {
			var sol Solution
			run := func() {
				if err := Solve(&sol, topo, p, width); err != nil {
					t.Fatal(err)
				}
			}
			run()
			if n := testing.AllocsPerRun(50, run); n != 0 {
				t.Errorf("%d pins (widths %v): a warm Solve makes %v allocations, want 0", pins, width != nil, n)
			}
		}
	}
}

// TestWarmDelaysAllocateOnlyTheirResult: GraphDelays and TreeDelays take
// their factorization and traversal storage from slots, so once warm each
// call allocates the delay slice it returns and nothing else.
func TestWarmDelaysAllocateOnlyTheirResult(t *testing.T) {
	topo := randomTree(t, 37, 30)
	l := lump(t, topo)
	for name, fn := range map[string]func(*graph.Topology, *rc.Lumped) ([]float64, error){
		"GraphDelays": GraphDelays, "TreeDelays": TreeDelays,
	} {
		run := func() {
			if _, err := fn(topo, l); err != nil {
				t.Fatal(err)
			}
		}
		run()
		if n := testing.AllocsPerRun(50, run); n != 1 {
			t.Errorf("a warm %s call makes %v allocations, want 1", name, n)
		}
	}
}
