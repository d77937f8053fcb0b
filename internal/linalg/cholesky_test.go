package linalg

import (
	"errors"
	"math"
	"math/rand"
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
	ch, err := FactorCholesky(a)
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
		ch, err1 := FactorCholesky(a)
		lu, err2 := Factor(a)
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
	if _, err := FactorCholesky(a); !errors.Is(err, ErrNotSPD) {
		t.Errorf("asymmetric: %v", err)
	}
	// Symmetric indefinite.
	b := NewMatrix(2, 2)
	b.Set(0, 0, 1)
	b.Set(0, 1, 2)
	b.Set(1, 0, 2)
	b.Set(1, 1, 1)
	if _, err := FactorCholesky(b); !errors.Is(err, ErrNotSPD) {
		t.Errorf("indefinite: %v", err)
	}
	// Non-square.
	if _, err := FactorCholesky(NewMatrix(2, 3)); err == nil {
		t.Error("non-square must fail")
	}
}

func TestFactorSPDFallsBackToLU(t *testing.T) {
	// A well-conditioned but asymmetric matrix must still be solvable.
	a := NewMatrix(2, 2)
	a.Set(0, 0, 4)
	a.Set(0, 1, 1)
	a.Set(1, 0, 2)
	a.Set(1, 1, 5)
	f, err := FactorSPD(a)
	if err != nil {
		t.Fatal(err)
	}
	if _, isCh := f.(*Cholesky); isCh {
		t.Error("asymmetric matrix must not take the Cholesky path")
	}
	x := f.Solve([]float64{6, 12})
	if r := Residual(a, x, []float64{6, 12}); r > 1e-12 {
		t.Errorf("fallback residual %v", r)
	}
}

func TestFactorSPDUsesCholeskyWhenPossible(t *testing.T) {
	a := randomSPD(rand.New(rand.NewSource(2)), 8)
	f, err := FactorSPD(a)
	if err != nil {
		t.Fatal(err)
	}
	if _, isCh := f.(*Cholesky); !isCh {
		t.Error("SPD matrix must take the Cholesky path")
	}
}

func TestCholeskySolveInPlaceMatchesSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomSPD(rng, 10)
	ch, err := FactorCholesky(a)
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

// referenceCholesky is the dense factor and substitution the compressed
// Cholesky replaced: L row-major with its zeros, every solve walking the
// full triangles. It is the bitwise referee of the compressed factor.
type referenceCholesky struct{ l *Matrix }

// newReferenceCholesky runs FactorCholesky's loop without its SPD checks;
// callers factor only matrices FactorCholesky accepts.
func newReferenceCholesky(a *Matrix) *referenceCholesky {
	n := a.Rows
	l := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := a.At(i, j)
			for k := 0; k < j; k++ {
				sum -= l.At(i, k) * l.At(j, k)
			}
			if i == j {
				l.Set(i, i, math.Sqrt(sum))
			} else {
				l.Set(i, j, sum/l.At(j, j))
			}
		}
	}
	return &referenceCholesky{l: l}
}

func (c *referenceCholesky) solveInPlace(b []float64) {
	n := c.l.Rows
	for i := 0; i < n; i++ {
		sum := b[i]
		for k := 0; k < i; k++ {
			sum -= c.l.At(i, k) * b[k]
		}
		b[i] = sum / c.l.At(i, i)
	}
	for i := n - 1; i >= 0; i-- {
		sum := b[i]
		for k := i + 1; k < n; k++ {
			sum -= c.l.At(k, i) * b[k]
		}
		b[i] = sum / c.l.At(i, i)
	}
}

func (c *referenceCholesky) det() float64 {
	det := 1.0
	for i := 0; i < c.l.Rows; i++ {
		d := c.l.At(i, i)
		det *= d * d
	}
	return det
}

// conductanceMatrix draws the grounded conductance matrix of a random
// n-node RC network, the pattern the Elmore analysis factors: a tree in
// which every node is wired to an earlier one, plus chords, with
// conductances spread over four decades and a driver conductance tying
// node 0 to ground.
func conductanceMatrix(rng *rand.Rand, n, chords int) *Matrix {
	a := NewMatrix(n, n)
	g := func() float64 { return math.Pow(10, 4*rng.Float64()-2) }
	wire := func(u, v int) {
		c := g()
		a.Add(u, u, c)
		a.Add(v, v, c)
		a.Add(u, v, -c)
		a.Add(v, u, -c)
	}
	for v := 1; v < n; v++ {
		wire(rng.Intn(v), v)
	}
	for k := 0; k < chords; k++ {
		if u, v := rng.Intn(n), rng.Intn(n); u != v {
			wire(u, v)
		}
	}
	a.Add(0, 0, g())
	return a
}

// checkCholeskyVsDense factors a with the compressed Cholesky and the
// dense reference and compares Det and the solves of a unit vector (a
// transfer-resistance column), a positive load vector and a signed vector
// with zeros, bit for bit.
func checkCholeskyVsDense(t *testing.T, rng *rand.Rand, a *Matrix) {
	t.Helper()
	n := a.Rows
	ch, err := FactorCholesky(a)
	if err != nil {
		t.Fatalf("%d×%d SPD matrix rejected: %v", n, n, err)
	}
	ref := newReferenceCholesky(a)
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

func TestCholeskyMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for n := 1; n <= 48; n++ {
		checkCholeskyVsDense(t, rng, conductanceMatrix(rng, n, n/4))
		checkCholeskyVsDense(t, rng, randomSPD(rng, n))
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
	ch, err := FactorCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(ch.lower.val) + len(ch.upper.val); got != 2*(n-1) {
		t.Fatalf("chain factor stores %d off-diagonal values, want %d", got, 2*(n-1))
	}
}

func FuzzCholeskyVsDense(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(0))
	f.Add(int64(2), uint8(12), uint8(3))
	f.Add(int64(3), uint8(30), uint8(8))
	f.Add(int64(4), uint8(47), uint8(40))
	f.Fuzz(func(t *testing.T, seed int64, size, chords uint8) {
		rng := rand.New(rand.NewSource(seed))
		checkCholeskyVsDense(t, rng, conductanceMatrix(rng, 1+int(size%48), int(chords%64)))
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
