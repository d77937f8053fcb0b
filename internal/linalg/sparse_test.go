package linalg

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// randomStamps draws an n×n MNA-like system: a random sparse pattern whose
// stamps repeat elements, magnitudes spread over many decades so partial
// pivoting swaps rows, and, when branch is set, a last unknown wired like a
// voltage-source branch (±1 incidence, zero diagonal) whose row is moved to
// the front so column 0 must pivot. With ties set, values come from
// {±1, ±2, ±0.5} with explicit 0 and -0 stamps instead, as on the ±1
// incidences of real MNA matrices: pivot candidates tie in magnitude, so
// the first-in-position-order rule decides, entries cancel to exact zeros,
// and stored zeros join the pattern.
func randomStamps(rng *rand.Rand, n int, density float64, branch, ties bool) []Stamp {
	var st []Stamp
	val := func() float64 { return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4)) }
	if ties {
		val = func() float64 { return []float64{1, -1, 2, -2, 0.5, -0.5, 0, math.Copysign(0, -1)}[rng.Intn(8)] }
	}
	for i := 0; i < n; i++ {
		st = append(st, Stamp{Row: i, Col: i, Val: val()})
		for j := 0; j < n; j++ {
			if j != i && rng.Float64() < density {
				st = append(st, Stamp{Row: i, Col: j, Val: val()})
			}
		}
	}
	// Repeat some stamps so elements accumulate several values.
	for k := len(st) / 3; k > 0; k-- {
		s := st[rng.Intn(len(st))]
		st = append(st, Stamp{Row: s.Row, Col: s.Col, Val: val()})
	}
	if branch && n > 1 {
		node := rng.Intn(n - 1)
		br := n - 1
		for i := range st {
			if st[i].Row == br || st[i].Col == br {
				st[i].Val = 0
			}
		}
		st = append(st, Stamp{Row: node, Col: br, Val: 1}, Stamp{Row: br, Col: node, Val: 1})
		// Swap unknowns 0 and br so the zero diagonal comes first.
		for i := range st {
			st[i].Row, st[i].Col = swapIndex(st[i].Row, br), swapIndex(st[i].Col, br)
		}
	}
	return st
}

func swapIndex(i, br int) int {
	switch i {
	case 0:
		return br
	case br:
		return 0
	}
	return i
}

// denseFromStamps stamps st into a dense matrix with Matrix.Add.
func denseFromStamps(n int, st []Stamp) *Matrix {
	d := NewMatrix(n, n)
	for _, s := range st {
		d.Add(s.Row, s.Col, s.Val)
	}
	return d
}

func sameBits(a, b []float64) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// checkSparseVsDense compares every Sparse and compressed-LU operation on
// one random system with its dense counterpart, bit for bit.
func checkSparseVsDense(t *testing.T, seed int64, n int, density float64, branch, ties bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	st := randomStamps(rng, n, density, branch, ties)
	sp := NewSparse(n, n, st)
	dense := denseFromStamps(n, st)
	if i := sameBits(sp.Dense().Data, dense.Data); i >= 0 {
		t.Fatalf("seed %d: Dense() differs from stamped matrix at %d", seed, i)
	}

	x := make([]float64, n)
	for i := range x {
		if rng.Intn(5) > 0 {
			x[i] = rng.NormFloat64()
		}
	}
	got := make([]float64, n)
	sp.MulVecInto(got, x)
	if i := sameBits(got, dense.MulVec(x)); i >= 0 {
		t.Fatalf("seed %d: MulVecInto row %d differs from dense", seed, i)
	}

	other := randomStamps(rng, n, density, false, ties)
	s := rng.NormFloat64()
	sum := dense.Clone()
	sum.AddScaled(denseFromStamps(n, other), s)
	var added Sparse
	sp.AddScaledInto(&added, NewSparse(n, n, other), s)
	if i := sameBits(added.Dense().Data, sum.Data); i >= 0 {
		t.Fatalf("seed %d: AddScaledInto element %d differs from dense", seed, i)
	}

	packed := dense.Clone()
	pivot, sign, wantErr := eliminate(packed)
	lu, err := sp.Factor()
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("seed %d: Factor error %v, dense elimination %v", seed, err, wantErr)
	}
	if err != nil {
		return
	}
	checkPackedLU(t, fmt.Sprintf("seed %d", seed), lu, packed, pivot, sign)
	b := make([]float64, n)
	for i := range b {
		if rng.Intn(5) > 0 {
			b[i] = rng.NormFloat64()
		}
	}
	want := append([]float64(nil), b...)
	referenceSolve(packed, pivot, want)
	lu.SolveInPlace(b)
	if i := sameBits(b, want); i >= 0 {
		t.Fatalf("seed %d: SolveInPlace x[%d] = %v, dense packed %v", seed, i, b[i], want[i])
	}
	if g, w := lu.Det(), referenceDet(packed, sign); math.Float64bits(g) != math.Float64bits(w) {
		t.Fatalf("seed %d: Det %v, dense packed %v", seed, g, w)
	}
}

func TestSparseMatchesDense(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		n := 1 + int(seed%40)
		checkSparseVsDense(t, seed, n, []float64{0.05, 0.15, 0.5}[seed%3], seed%2 == 0, seed%4 >= 2)
	}
}

func TestRandomStampsPivot(t *testing.T) {
	// The systems the equivalence checks draw must really exercise row
	// interchanges, or the permutation half of the solve goes untested.
	rng := rand.New(rand.NewSource(1))
	packed := denseFromStamps(12, randomStamps(rng, 12, 0.15, true, false))
	pivot, _, err := eliminate(packed)
	if err != nil {
		t.Fatal(err)
	}
	if pivot[0] == 0 {
		t.Fatalf("zero-diagonal branch row did not pivot: %v", pivot)
	}
}

func FuzzSparseVsDense(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(20), true, false)
	f.Add(int64(2), uint8(30), uint8(5), true, false)
	f.Add(int64(3), uint8(1), uint8(50), false, false)
	f.Add(int64(4), uint8(17), uint8(90), false, false)
	f.Add(int64(5), uint8(24), uint8(10), true, true)
	f.Add(int64(6), uint8(40), uint8(30), false, true)
	f.Fuzz(func(t *testing.T, seed int64, size, fill uint8, branch, ties bool) {
		checkSparseVsDense(t, seed, 1+int(size%48), float64(fill%101)/100, branch, ties)
	})
}

func TestNewSparseSumsStampsInOrder(t *testing.T) {
	// 0+1e16+1-1e16 rounds to 0, 0+1e16-1e16+1 to 1: the stored sum must
	// follow stamp order, as Matrix.Add does.
	st := []Stamp{{0, 1, 1e16}, {1, 0, 2}, {0, 1, 1}, {0, 1, -1e16}, {1, 1, 3}, {1, 1, -3}}
	m := NewSparse(2, 2, st)
	if got := m.Dense().At(0, 1); got != 0 {
		t.Errorf("(0,1) = %v, want 0 (stamp order)", got)
	}
	cols, vals := m.Row(1)
	if len(cols) != 2 || cols[0] != 0 || cols[1] != 1 || vals[0] != 2 || vals[1] != 0 {
		t.Errorf("row 1 = %v %v, want columns [0 1] values [2 0]: a zero sum stays stored", cols, vals)
	}
}

func TestNewCSRMatchesNewSparse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 7, 30} {
		m := NewSparse(n, n, randomStamps(rng, n, 0.2, false, true))
		c := NewCSR(n, n, append([]int(nil), m.ptr...), append([]int(nil), m.col...), append([]float64(nil), m.val...))
		if got, want := c.Dense(), m.Dense(); !slices.Equal(got.Data, want.Data) {
			t.Fatalf("n=%d: NewCSR gives %v, want %v", n, got.Data, want.Data)
		}
	}
}

func TestSparseValidation(t *testing.T) {
	for i, bad := range []func(){
		func() { NewSparse(2, 2, []Stamp{{2, 0, 1}}) },
		func() { NewSparse(2, 2, []Stamp{{0, -1, 1}}) },
		func() { NewSparse(-1, 2, nil) },
		func() { NewSparse(2, 2, nil).MulVecInto(make([]float64, 2), []float64{1}) },
		func() { NewSparse(2, 2, nil).AddScaledInto(new(Sparse), NewSparse(2, 3, nil), 1) },
		func() { m := NewSparse(2, 2, nil); m.AddScaledInto(m, NewSparse(2, 2, nil), 1) },
		func() { NewCSR(-1, 2, []int{0}, nil, nil) },
		func() { NewCSR(2, 2, []int{0, 1}, []int{0}, []float64{1}) },           // too few pointers
		func() { NewCSR(1, 2, []int{0, 1}, []int{0, 1}, []float64{1, 2}) },     // ptr ends early
		func() { NewCSR(1, 2, []int{0, 2}, []int{0, 1}, []float64{1}) },        // values short
		func() { NewCSR(2, 2, []int{0, 2, 1}, []int{0, 1}, []float64{1, 2}) },  // row ends before it starts
		func() { NewCSR(1, 2, []int{0, 2}, []int{1, 0}, []float64{1, 2}) },     // descending
		func() { NewCSR(1, 2, []int{0, 2}, []int{1, 1}, []float64{1, 2}) },     // repeated column
		func() { NewCSR(1, 2, []int{0, 2}, []int{0, 2}, []float64{1, 2}) },     // column outside
		func() { NewCSR(2, 2, []int{0, 1, 2}, []int{-1, 0}, []float64{1, 2}) }, // negative column
		func() { NewCSR(2, 2, []int{0, 3, 2}, []int{0, 1}, []float64{1, 2}) },  // row 0 runs past the columns
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: must panic", i)
				}
			}()
			bad()
		}()
	}
	if _, err := NewSparse(2, 3, nil).Factor(); err == nil {
		t.Error("non-square sparse factor must error")
	}
	if _, err := NewSparse(3, 3, nil).Factor(); !errors.Is(err, ErrSingular) {
		t.Errorf("zero sparse matrix: %v", err)
	}
}

func TestLUDropsZerosOfPackedFactors(t *testing.T) {
	// A tridiagonal matrix factors without fill: the compressed factors hold
	// one L and one U entry per row, not the dense triangles.
	const n = 50
	var st []Stamp
	for i := 0; i < n; i++ {
		st = append(st, Stamp{i, i, 4})
		if i > 0 {
			st = append(st, Stamp{i, i - 1, -1}, Stamp{i - 1, i, -1})
		}
	}
	lu, err := NewSparse(n, n, st).Factor()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(lu.val), 2*(n-1); got != want {
		t.Errorf("compressed factors hold %d off-diagonal entries, want %d", got, want)
	}
}
