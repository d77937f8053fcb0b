package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 0, 1)
	m.Set(1, 2, 5)
	m.Add(1, 2, 2)
	if m.At(0, 0) != 1 || m.At(1, 2) != 7 || m.At(0, 1) != 0 {
		t.Errorf("element ops wrong: %+v", m)
	}
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Error("Clone must be deep")
	}
	m.Zero()
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("Zero failed")
		}
	}
}

func TestMulVec(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 0, 1)
	m.Set(0, 1, 2)
	m.Set(1, 0, 3)
	m.Set(1, 1, 4)
	y := m.MulVec([]float64{5, 6})
	if y[0] != 17 || y[1] != 39 {
		t.Errorf("MulVec = %v", y)
	}
}

func TestMulVecIntoMatchesPlainLoop(t *testing.T) {
	// The unrolled product must sum in the plain loop's order, bit for bit;
	// the transient simulator's delays depend on it.
	rng := rand.New(rand.NewSource(3))
	for cols := 1; cols <= 13; cols++ {
		m := NewMatrix(3, cols)
		x := make([]float64, cols)
		for i := range m.Data {
			m.Data[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(16)-8))
		}
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		got := make([]float64, m.Rows)
		m.MulVecInto(got, x)
		for i := 0; i < m.Rows; i++ {
			var want float64
			for j := 0; j < cols; j++ {
				want += m.At(i, j) * x[j]
			}
			if math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("%d cols, row %d: %v, plain loop %v", cols, i, got[i], want)
			}
		}
	}
}

func TestMulVecDimensionPanic(t *testing.T) {
	for i, mul := range []func(){
		func() { NewMatrix(2, 2).MulVec([]float64{1}) },
		func() { NewMatrix(2, 2).MulVecInto(make([]float64, 1), []float64{1, 2}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: dimension mismatch must panic", i)
				}
			}()
			mul()
		}()
	}
}

func TestAddScaled(t *testing.T) {
	a := NewMatrix(2, 2)
	b := NewMatrix(2, 2)
	a.Set(0, 0, 1)
	b.Set(0, 0, 2)
	b.Set(1, 1, 4)
	a.AddScaled(b, 0.5)
	if a.At(0, 0) != 2 || a.At(1, 1) != 2 {
		t.Errorf("AddScaled: %+v", a)
	}
}

func TestSolveKnownSystem(t *testing.T) {
	// [2 1; 1 3] x = [3; 5] → x = [4/5, 7/5]
	a := NewMatrix(2, 2)
	a.Set(0, 0, 2)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 3)
	lu, err := factorMatrix(a)
	if err != nil {
		t.Fatal(err)
	}
	x := lu.Solve([]float64{3, 5})
	if math.Abs(x[0]-0.8) > 1e-12 || math.Abs(x[1]-1.4) > 1e-12 {
		t.Errorf("x = %v", x)
	}
}

func TestSolveRequiresPivoting(t *testing.T) {
	// Zero on the initial diagonal: fails without partial pivoting.
	a := NewMatrix(2, 2)
	a.Set(0, 0, 0)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 0)
	lu, err := factorMatrix(a)
	if err != nil {
		t.Fatal(err)
	}
	x := lu.Solve([]float64{3, 7})
	if math.Abs(x[0]-7) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Errorf("x = %v, want [7 3]", x)
	}
}

func TestSingularDetection(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 4) // rank 1
	if _, err := factorMatrix(a); !errors.Is(err, ErrSingular) {
		t.Errorf("rank-1 matrix: %v", err)
	}
	z := NewMatrix(3, 3)
	if _, err := factorMatrix(z); !errors.Is(err, ErrSingular) {
		t.Errorf("zero matrix: %v", err)
	}
}

func TestNonSquareRejected(t *testing.T) {
	if _, err := factorMatrix(NewMatrix(2, 3)); err == nil {
		t.Error("non-square factor must error")
	}
}

func TestDeterminant(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 3)
	a.Set(0, 1, 8)
	a.Set(1, 0, 4)
	a.Set(1, 1, 6)
	lu, err := factorMatrix(a)
	if err != nil {
		t.Fatal(err)
	}
	if d := lu.Det(); math.Abs(d-(-14)) > 1e-9 {
		t.Errorf("det = %v, want -14", d)
	}
}

func randomDiagDominant(rng *rand.Rand, n int) *Matrix {
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		var rowSum float64
		for j := 0; j < n; j++ {
			if i != j {
				v := rng.NormFloat64()
				a.Set(i, j, v)
				rowSum += math.Abs(v)
			}
		}
		a.Set(i, i, rowSum+1+rng.Float64())
	}
	return a
}

func TestRandomSolveResidualProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func() bool {
		n := 1 + rng.Intn(40)
		a := randomDiagDominant(rng, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		lu, err := factorMatrix(a)
		if err != nil {
			return false
		}
		x := lu.Solve(b)
		return Residual(a, x, b) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSolveDoesNotModifyInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randomDiagDominant(rng, 5)
	aCopy := a.Clone()
	b := []float64{1, 2, 3, 4, 5}
	bCopy := append([]float64(nil), b...)

	lu, err := factorMatrix(a)
	if err != nil {
		t.Fatal(err)
	}
	_ = lu.Solve(b)
	for i := range a.Data {
		if a.Data[i] != aCopy.Data[i] {
			t.Fatal("Factor modified its input matrix")
		}
	}
	for i := range b {
		if b[i] != bCopy[i] {
			t.Fatal("Solve modified its right-hand side")
		}
	}
}

func TestSolveInPlaceMatchesSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomDiagDominant(rng, 8)
	b := make([]float64, 8)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	lu, err := factorMatrix(a)
	if err != nil {
		t.Fatal(err)
	}
	x1 := lu.Solve(b)
	x2 := append([]float64(nil), b...)
	lu.SolveInPlace(x2)
	for i := range x1 {
		if x1[i] != x2[i] {
			t.Fatalf("Solve and SolveInPlace differ at %d", i)
		}
	}
}

func TestIdentitySolve(t *testing.T) {
	n := 10
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		a.Set(i, i, 1)
	}
	lu, err := factorMatrix(a)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = float64(i)
	}
	x := lu.Solve(b)
	for i := range x {
		if x[i] != b[i] {
			t.Fatalf("identity solve changed the vector at %d", i)
		}
	}
	if d := lu.Det(); d != 1 {
		t.Errorf("identity det = %v", d)
	}
}

func TestSymmetricSPDConductanceLike(t *testing.T) {
	// A grounded conductance matrix (Laplacian + diagonal ground leak) is
	// SPD; solving against canonical basis vectors gives a symmetric
	// inverse. This mirrors exactly how the Elmore analysis uses linalg.
	n := 12
	rng := rand.New(rand.NewSource(5))
	a := NewMatrix(n, n)
	for k := 0; k < 3*n; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		g := rng.Float64() + 0.1
		a.Add(i, i, g)
		a.Add(j, j, g)
		a.Add(i, j, -g)
		a.Add(j, i, -g)
	}
	a.Add(0, 0, 0.01) // ground leak makes it non-singular
	lu, err := factorMatrix(a)
	if err != nil {
		t.Fatal(err)
	}
	ei := make([]float64, n)
	ej := make([]float64, n)
	for trial := 0; trial < 10; trial++ {
		i, j := rng.Intn(n), rng.Intn(n)
		for k := range ei {
			ei[k], ej[k] = 0, 0
		}
		ei[i], ej[j] = 1, 1
		xi := lu.Solve(ei)
		xj := lu.Solve(ej)
		if math.Abs(xi[j]-xj[i]) > 1e-9*math.Max(math.Abs(xi[j]), 1e-12) {
			t.Fatalf("inverse not symmetric: A⁻¹[%d,%d]=%v vs A⁻¹[%d,%d]=%v",
				j, i, xi[j], i, j, xj[i])
		}
	}
}

func TestNegativeDimensionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative dimension must panic")
		}
	}()
	NewMatrix(-1, 2)
}
