package linalg

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func randomSPD(rng *rand.Rand, n int) *Matrix {
	// A = Bᵀ·B + n·I is SPD for any B.
	b := NewMatrix(n, n)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var sum float64
			for k := 0; k < n; k++ {
				sum += b.At(k, i) * b.At(k, j)
			}
			a.Set(i, j, sum)
		}
		a.Add(i, i, float64(n))
	}
	return a
}

func TestCholeskyKnownCase(t *testing.T) {
	// [[4,2],[2,3]] = L·Lᵀ with L = [[2,0],[1,√2]].
	a := NewMatrix(2, 2)
	a.Set(0, 0, 4)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 3)
	ch, err := a.sparse().FactorCholesky()
	if err != nil {
		t.Fatal(err)
	}
	x := ch.Solve([]float64{10, 8})
	// Verify by residual.
	if r := Residual(a, x, []float64{10, 8}); r > 1e-12 {
		t.Errorf("residual %v", r)
	}
	if d := ch.Det(); math.Abs(d-8) > 1e-12 {
		t.Errorf("det = %v, want 8", d)
	}
}

func TestCholeskyMatchesLUProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func() bool {
		n := 1 + rng.Intn(25)
		a := randomSPD(rng, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		ch, err1 := a.sparse().FactorCholesky()
		lu, err2 := factorMatrix(a)
		if err1 != nil || err2 != nil {
			return false
		}
		xc := ch.Solve(b)
		xl := lu.Solve(b)
		for i := range xc {
			if math.Abs(xc[i]-xl[i]) > 1e-8*(1+math.Abs(xl[i])) {
				return false
			}
		}
		return math.Abs(ch.Det()-lu.Det()) <= 1e-6*math.Abs(lu.Det())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestCholeskyRejectsNonSPD(t *testing.T) {
	// Asymmetric.
	a := NewMatrix(2, 2)
	a.Set(0, 0, 2)
	a.Set(0, 1, 1)
	a.Set(1, 0, 3)
	a.Set(1, 1, 2)
	if _, err := a.sparse().FactorCholesky(); !errors.Is(err, ErrNotSPD) {
		t.Errorf("asymmetric: %v", err)
	}
	// Symmetric indefinite.
	b := NewMatrix(2, 2)
	b.Set(0, 0, 1)
	b.Set(0, 1, 2)
	b.Set(1, 0, 2)
	b.Set(1, 1, 1)
	if _, err := b.sparse().FactorCholesky(); !errors.Is(err, ErrNotSPD) {
		t.Errorf("indefinite: %v", err)
	}
	// Non-square.
	if _, err := NewMatrix(2, 3).sparse().FactorCholesky(); err == nil {
		t.Error("non-square must fail")
	}
	// An entry on either side of the diagonal whose mirror is not stored,
	// and one whose stored mirror is zero.
	for i, st := range [][]Stamp{
		{{0, 0, 2}, {1, 1, 2}, {2, 2, 2}, {2, 0, 0.5}},
		{{0, 0, 2}, {1, 1, 2}, {2, 2, 2}, {0, 2, 0.5}},
		{{0, 0, 2}, {1, 1, 2}, {2, 2, 2}, {1, 2, 0.5}, {2, 1, 0}},
	} {
		if _, err := NewSparse(3, 3, st).FactorCholesky(); !errors.Is(err, ErrNotSPD) {
			t.Errorf("one-sided entry %d: %v", i, err)
		}
	}
}

func TestFactorSPDFallsBackToLU(t *testing.T) {
	// A well-conditioned symmetric but indefinite matrix (eigenvalues −1
	// and 3) must still be solvable.
	a := NewMatrix(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 1)
	f, err := FactorSPDInto(a.sparse(), new(Cholesky), new(LU))
	if err != nil {
		t.Fatal(err)
	}
	if _, isCh := f.(*Cholesky); isCh {
		t.Error("indefinite matrix must not take the Cholesky path")
	}
	x := f.Solve([]float64{6, 12})
	if r := Residual(a, x, []float64{6, 12}); r > 1e-12 {
		t.Errorf("fallback residual %v", r)
	}
}

func TestFactorSPDUsesCholeskyWhenPossible(t *testing.T) {
	a := randomSPD(rand.New(rand.NewSource(2)), 8)
	f, err := FactorSPDInto(a.sparse(), new(Cholesky), new(LU))
	if err != nil {
		t.Fatal(err)
	}
	if _, isCh := f.(*Cholesky); !isCh {
		t.Error("SPD matrix must take the Cholesky path")
	}
}

// TestFactorSPDIntoReusesBothFactors factors a run of matrices that
// grow and shrink into one Cholesky and one LU, alternating SPD matrices
// with symmetric indefinite ones, which take the LU fallback. Each filled
// factor must equal a fresh FactorCholesky or Factor exactly, and once the
// storage has grown, refactoring on either path allocates nothing.
func TestFactorSPDIntoReusesBothFactors(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	var ch Cholesky
	var lu LU
	for i, n := range []int{6, 30, 4, 30, 12, 30} {
		a := randomSPD(rng, n)
		indefinite := i%2 == 1
		if indefinite {
			a.Add(n/2, n/2, -4*float64(n*n))
		}
		sp := a.sparse()
		f, err := FactorSPDInto(sp, &ch, &lu)
		if err != nil {
			t.Fatalf("matrix %d: %v", i, err)
		}
		if indefinite {
			want, err := sp.Factor()
			if err != nil {
				t.Fatal(err)
			}
			if f != Factorization(&lu) || !reflect.DeepEqual(lu, *want) {
				t.Fatalf("matrix %d: LU fallback in reused storage differs from a fresh Factor", i)
			}
		} else {
			want, err := sp.FactorCholesky()
			if err != nil {
				t.Fatal(err)
			}
			if f != Factorization(&ch) || !reflect.DeepEqual(ch, *want) {
				t.Fatalf("matrix %d: Cholesky in reused storage differs from a fresh FactorCholesky", i)
			}
		}
		if n == 30 && i >= 2 {
			if got := testing.AllocsPerRun(10, func() { _, _ = FactorSPDInto(sp, &ch, &lu) }); got != 0 {
				t.Errorf("matrix %d (indefinite %v): refactoring warm storage makes %v allocations, want 0", i, indefinite, got)
			}
		}
	}
}

func TestCholeskySolveInPlaceMatchesSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomSPD(rng, 10)
	ch, err := a.sparse().FactorCholesky()
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, 10)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x1 := ch.Solve(b)
	x2 := append([]float64(nil), b...)
	ch.SolveInPlace(x2)
	for i := range x1 {
		if x1[i] != x2[i] {
			t.Fatal("Solve and SolveInPlace differ")
		}
	}
}

// conductanceStamps draws the stamps of the grounded conductance matrix of
// a random n-node RC network, the pattern the Elmore analysis factors: a
// tree in which every node is wired to an earlier one, plus chords, with
// conductances spread over four decades and a driver conductance tying
// node 0 to ground. With ties set, conductances come from {1, 2, 0.5},
// one in eight negated, and explicit 0 and -0 stamps land on random
// symmetric pairs and diagonals: entries cancel to exact zeros, stored
// zeros join the pattern, and some matrices are indefinite.
func conductanceStamps(rng *rand.Rand, n, chords int, ties bool) []Stamp {
	var st []Stamp
	g := func() float64 { return math.Pow(10, 4*rng.Float64()-2) }
	if ties {
		g = func() float64 {
			c := []float64{1, 2, 0.5}[rng.Intn(3)]
			if rng.Intn(8) == 0 {
				c = -c
			}
			return c
		}
	}
	wire := func(u, v int) {
		c := g()
		st = append(st, Stamp{u, u, c}, Stamp{v, v, c}, Stamp{u, v, -c}, Stamp{v, u, -c})
	}
	for v := 1; v < n; v++ {
		wire(rng.Intn(v), v)
	}
	for k := 0; k < chords; k++ {
		if u, v := rng.Intn(n), rng.Intn(n); u != v {
			wire(u, v)
		}
	}
	st = append(st, Stamp{0, 0, g()})
	if ties {
		negZero := math.Copysign(0, -1)
		for k := rng.Intn(n + 1); k > 0; k-- {
			u, v := rng.Intn(n), rng.Intn(n)
			st = append(st, Stamp{u, v, 0}, Stamp{v, u, negZero})
		}
	}
	return st
}

// checkCholeskyVsDense factors the matrix with the compressed Cholesky and
// the dense reference. Both must reject it with the same error, or both
// accept it; then the factors must agree entry by entry, and Det and the
// solves of a unit vector (a transfer-resistance column), a positive load
// vector and a signed vector with zeros bit for bit.
func checkCholeskyVsDense(t *testing.T, rng *rand.Rand, a *Matrix, sp *Sparse) {
	t.Helper()
	n := a.Rows
	ch, err := sp.FactorCholesky()
	ref, wantErr := newReferenceCholesky(a)
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("n=%d: FactorCholesky error %v, dense %v", n, err, wantErr)
	}
	if err != nil {
		return
	}
	checkPackedCholesky(t, fmt.Sprintf("n=%d", n), ch, ref)
	if g, w := ch.Det(), ref.det(); math.Float64bits(g) != math.Float64bits(w) {
		t.Fatalf("n=%d: Det %v, dense %v", n, g, w)
	}
	unit, load, signed := make([]float64, n), make([]float64, n), make([]float64, n)
	unit[rng.Intn(n)] = 1
	for i := range load {
		load[i] = rng.Float64() * 1e-13
		if rng.Intn(4) > 0 {
			signed[i] = rng.NormFloat64()
		}
	}
	for _, b := range [][]float64{unit, load, signed} {
		want := append([]float64(nil), b...)
		ref.solveInPlace(want)
		if i := sameBits(ch.Solve(b), want); i >= 0 {
			t.Fatalf("n=%d: Solve x[%d] differs from dense", n, i)
		}
		ch.SolveInPlace(b)
		if i := sameBits(b, want); i >= 0 {
			t.Fatalf("n=%d: SolveInPlace x[%d] = %v, dense %v", n, i, b[i], want[i])
		}
	}
}

// checkConductanceVsDense draws a conductance matrix and checks its sparse
// factor against the dense one.
func checkConductanceVsDense(t *testing.T, rng *rand.Rand, n, chords int, ties bool) {
	t.Helper()
	st := conductanceStamps(rng, n, chords, ties)
	checkCholeskyVsDense(t, rng, denseFromStamps(n, st), NewSparse(n, n, st))
}

func TestCholeskyMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for n := 1; n <= 48; n++ {
		checkConductanceVsDense(t, rng, n, n/4, false)
		// Tied values: several draws per size, as most are indefinite.
		for chords := 0; chords <= n; chords += 1 + n/4 {
			checkConductanceVsDense(t, rng, n, chords, true)
		}
		a := randomSPD(rng, n)
		checkCholeskyVsDense(t, rng, a, a.sparse())
	}
}

// TestCholeskyStoresOnlyNonzeros checks that a tree's factor in natural
// order keeps exactly one entry per wire: a chain's L is bidiagonal.
func TestCholeskyStoresOnlyNonzeros(t *testing.T) {
	const n = 20
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		a.Set(i, i, 2)
		if i > 0 {
			a.Set(i, i-1, -1)
			a.Set(i-1, i, -1)
		}
	}
	ch, err := a.sparse().FactorCholesky()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(ch.lower.val) + len(ch.upper.val); got != 2*(n-1) {
		t.Fatalf("chain factor stores %d off-diagonal values, want %d", got, 2*(n-1))
	}
}

func FuzzCholeskyVsDense(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(0), false)
	f.Add(int64(2), uint8(12), uint8(3), false)
	f.Add(int64(3), uint8(30), uint8(8), false)
	f.Add(int64(4), uint8(47), uint8(40), false)
	f.Add(int64(5), uint8(20), uint8(6), true)
	f.Add(int64(6), uint8(40), uint8(30), true)
	f.Fuzz(func(t *testing.T, seed int64, size, chords uint8, ties bool) {
		checkConductanceVsDense(t, rand.New(rand.NewSource(seed)), 1+int(size%48), int(chords%64), ties)
	})
}

func TestComplexLUSolve(t *testing.T) {
	// (1+i)x + 3y = 3;  x + (1-i)y = 1+i  (det = 2 − 3 = −1 ≠ 0).
	a := NewCMatrix(2, 2)
	a.Set(0, 0, complex(1, 1))
	a.Set(0, 1, 3)
	a.Set(1, 0, 1)
	a.Set(1, 1, complex(1, -1))
	b := []complex128{3, complex(1, 1)}
	lu, err := FactorComplex(a)
	if err != nil {
		t.Fatal(err)
	}
	x := lu.Solve(b)
	for i := 0; i < 2; i++ {
		var sum complex128
		for j := 0; j < 2; j++ {
			sum += a.At(i, j) * x[j]
		}
		if d := sum - b[i]; real(d)*real(d)+imag(d)*imag(d) > 1e-20 {
			t.Errorf("row %d residual %v", i, d)
		}
	}
}

func TestComplexLURandomResidualProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(20)
		a := NewCMatrix(n, n)
		for i := range a.Data {
			a.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		// Diagonal boost keeps the matrix comfortably non-singular.
		for i := 0; i < n; i++ {
			a.Add(i, i, complex(float64(n), float64(n)))
		}
		b := make([]complex128, n)
		for i := range b {
			b[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		lu, err := FactorComplex(a)
		if err != nil {
			t.Fatal(err)
		}
		x := lu.Solve(b)
		for i := 0; i < n; i++ {
			var sum complex128
			for j := 0; j < n; j++ {
				sum += a.At(i, j) * x[j]
			}
			d := sum - b[i]
			if real(d)*real(d)+imag(d)*imag(d) > 1e-16 {
				t.Fatalf("trial %d row %d residual %v", trial, i, d)
			}
		}
	}
}

func TestComplexLUSingular(t *testing.T) {
	a := NewCMatrix(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 4)
	if _, err := FactorComplex(a); !errors.Is(err, ErrSingularComplex) {
		t.Errorf("rank-1 complex: %v", err)
	}
	if _, err := FactorComplex(NewCMatrix(3, 3)); err == nil {
		t.Error("zero matrix must fail")
	}
	if _, err := FactorComplex(NewCMatrix(2, 3)); err == nil {
		t.Error("non-square must fail")
	}
}

func TestFromRealPair(t *testing.T) {
	g := NewMatrix(2, 2)
	c := NewMatrix(2, 2)
	g.Set(0, 0, 1)
	c.Set(0, 0, 2)
	m, err := FromRealPair(g, c, complex(0, 3))
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 0) != complex(1, 6) {
		t.Errorf("got %v, want (1+6i)", m.At(0, 0))
	}
	if _, err := FromRealPair(g, NewMatrix(3, 3), 1i); err == nil {
		t.Error("mismatched shapes must fail")
	}
}
