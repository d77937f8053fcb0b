package linalg

import (
	"math/rand"
	"sync"
	"testing"
)

// TestFactorsAllocateOnlyTheirResult guards the reused scratch of the
// factorizations: once warm, an LU or Cholesky factorization allocates its
// result (the factor and its index and value arrays) and nothing per row,
// merge or fill entry, whatever the size: at the sizes routing factors,
// allocating per row merge would cost more than the dense loop it replaced.
func TestFactorsAllocateOnlyTheirResult(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, n := range []int{30, 300} {
		st := conductanceStamps(rng, n, n/10, false)
		g := NewSparse(n, n, st)
		for _, c := range []struct {
			name   string
			factor func() error
		}{
			{"Cholesky", func() error { _, err := g.FactorCholesky(); return err }},
			{"LU", func() error { _, err := g.Factor(); return err }},
		} {
			if err := c.factor(); err != nil {
				t.Fatalf("%s of %d-node conductance matrix: %v", c.name, n, err)
			}
			if got := testing.AllocsPerRun(20, func() { _ = c.factor() }); got > 3 {
				t.Errorf("%s of %d-node conductance matrix: %v allocations, want at most 3", c.name, n, got)
			}
		}
	}
}

// TestConcurrentFactorsMatchSerial factors and solves distinct matrices
// from many goroutines at once, so concurrent factorizations take and
// return scratch together, and checks every result bit for bit against a serial
// run. Under -race it also checks that no scratch is shared while in use.
func TestConcurrentFactorsMatchSerial(t *testing.T) {
	const systems, workers, rounds = 24, 8, 4
	rng := rand.New(rand.NewSource(9))
	type system struct {
		lu, ch *Sparse
		b      []float64
	}
	var sys []system
	for len(sys) < systems {
		n := 5 + rng.Intn(60)
		lu := NewSparse(n, n, randomStamps(rng, n, 0.08, true, len(sys)%2 == 0))
		if _, err := lu.Factor(); err != nil {
			continue
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		sys = append(sys, system{lu, NewSparse(n, n, conductanceStamps(rng, n, n/5, false)), b})
	}
	solve := func(s system) (x, y []float64) {
		lu, err := s.lu.Factor()
		if err != nil {
			t.Error(err)
			return nil, nil
		}
		ch, err := s.ch.FactorCholesky()
		if err != nil {
			t.Error(err)
			return nil, nil
		}
		return lu.Solve(s.b), ch.Solve(s.b)
	}
	wantLU, wantCh := make([][]float64, systems), make([][]float64, systems)
	for i, s := range sys {
		wantLU[i], wantCh[i] = solve(s)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for k := range sys {
					i := (k + w*5) % systems
					x, y := solve(sys[i])
					if sameBits(x, wantLU[i]) >= 0 || sameBits(y, wantCh[i]) >= 0 {
						t.Errorf("worker %d: system %d solves differently from the serial run", w, i)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
