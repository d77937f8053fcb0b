package linalg

import (
	"errors"
	"fmt"
	"math"
)

// Factorization is the solve interface shared by LU and Cholesky, letting
// consumers pick the cheapest factorization their matrix admits.
type Factorization interface {
	// Solve returns x with A·x = b; b is not modified.
	Solve(b []float64) []float64
	// SolveInPlace overwrites b with the solution, allocation-free.
	SolveInPlace(b []float64)
}

var (
	_ Factorization = (*LU)(nil)
	_ Factorization = (*Cholesky)(nil)
)

// ErrNotSPD is returned when Cholesky factorization encounters a
// non-positive pivot — the matrix is not symmetric positive definite.
var ErrNotSPD = errors.New("linalg: matrix is not symmetric positive definite")

// Cholesky is the factorization A = L·Lᵀ of a symmetric positive definite
// matrix — half the flops of LU and no pivoting, ideal for the grounded
// conductance matrices of RC networks (which are SPD by construction).
//
// The factor is stored compressed, like LU's: the diagonal of L, and the
// nonzeros below it twice over, once by rows of L (lower) for forward
// substitution and once by columns of L, that is by rows of Lᵀ (upper),
// for back substitution. Conductance matrices of routing graphs factor
// sparsely in their natural node order (L is 6.5% nonzero at 100 pins), so
// a solve costs O(nnz) instead of O(n²).
type Cholesky struct {
	n    int
	diag []float64
	// Row i of lower holds L[i][j] for j < i, and row i of upper holds
	// L[k][i] for k > i; both keep only nonzeros.
	lower, upper Sparse
}

// FactorCholesky computes the Cholesky factorization of a, which must be
// symmetric positive definite (symmetry is checked up front; definiteness
// falls out of the factorization itself). a is not modified.
func FactorCholesky(a *Matrix) (*Cholesky, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("linalg: cannot Cholesky-factor %dx%d non-square matrix", a.Rows, a.Cols)
	}
	n := a.Rows
	// Symmetry check with a tolerance scaled to the matrix magnitude.
	var maxAbs float64
	for _, v := range a.Data {
		if av := math.Abs(v); av > maxAbs {
			maxAbs = av
		}
	}
	tol := maxAbs * 1e-12
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if math.Abs(a.At(i, j)-a.At(j, i)) > tol {
				return nil, fmt.Errorf("%w: asymmetric at (%d,%d)", ErrNotSPD, i, j)
			}
		}
	}

	l := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := a.At(i, j)
			rowI := l.Data[i*n : i*n+j]
			rowJ := l.Data[j*n : j*n+j]
			for k := range rowJ {
				sum -= rowI[k] * rowJ[k]
			}
			if i == j {
				if sum <= maxAbs*1e-14 {
					return nil, fmt.Errorf("%w: pivot %d is %g", ErrNotSPD, i, sum)
				}
				l.Set(i, i, math.Sqrt(sum))
			} else {
				l.Set(i, j, sum/l.At(j, j))
			}
		}
	}
	return compressCholesky(l), nil
}

// compressCholesky keeps the diagonal and the nonzeros of the dense lower
// triangular factor l. The nonzeros are counted first, so the factor's
// indices and values take one exactly sized allocation each.
func compressCholesky(l *Matrix) *Cholesky {
	n := l.Rows
	nnz := 0
	for i := 0; i < n; i++ {
		for _, v := range l.Data[i*n : i*n+i] {
			if v != 0 {
				nnz++
			}
		}
	}
	intBuf, valBuf := make([]int, 3*n+2+2*nnz), make([]float64, n+2*nnz)
	takeInts := func(k int) []int { s := intBuf[:k:k]; intBuf = intBuf[k:]; return s }
	takeVals := func(k int) []float64 { s := valBuf[:k:k]; valBuf = valBuf[k:]; return s }
	c := &Cholesky{n: n, diag: takeVals(n),
		lower: Sparse{Rows: n, Cols: n, ptr: takeInts(n + 1), col: takeInts(nnz), val: takeVals(nnz)},
		upper: Sparse{Rows: n, Cols: n, ptr: takeInts(n + 1), col: takeInts(nnz), val: takeVals(nnz)},
	}
	// The rows of L, counting the entries of each row of Lᵀ on the way.
	pos := 0
	for i := 0; i < n; i++ {
		for j, v := range l.Data[i*n : i*n+i] {
			if v != 0 {
				c.lower.col[pos], c.lower.val[pos] = j, v
				pos++
				c.upper.ptr[j+1]++
			}
		}
		c.lower.ptr[i+1] = pos
		c.diag[i] = l.At(i, i)
	}
	for j := 0; j < n; j++ {
		c.upper.ptr[j+1] += c.upper.ptr[j]
	}
	// The rows of Lᵀ: visiting the rows of L in order fills each one in
	// ascending index order.
	next := takeInts(n)
	copy(next, c.upper.ptr[:n])
	for i := 0; i < n; i++ {
		cols, vals := c.lower.Row(i)
		for k, j := range cols {
			c.upper.col[next[j]], c.upper.val[next[j]] = i, vals[k]
			next[j]++
		}
	}
	return c
}

// Solve returns x with A·x = b.
func (c *Cholesky) Solve(b []float64) []float64 {
	x := make([]float64, len(b))
	copy(x, b)
	c.SolveInPlace(x)
	return x
}

// SolveInPlace overwrites b with A⁻¹b via forward then backward
// substitution against L and Lᵀ, allocation-free. Each row is walked in
// ascending index order, as over the dense factor; only the exact-zero
// entries are skipped. For finite b without negative zeros the result is
// bit-identical to dense substitution.
func (c *Cholesky) SolveInPlace(b []float64) {
	n := c.n
	if len(b) != n {
		panic(fmt.Sprintf("linalg: Cholesky solve dimension mismatch: %d vs %d", len(b), n))
	}
	// L·y = b.
	for i := 0; i < n; i++ {
		cols, vals := c.lower.Row(i)
		sum := b[i]
		for k, j := range cols {
			sum -= vals[k] * b[j]
		}
		b[i] = sum / c.diag[i]
	}
	// Lᵀ·x = y.
	for i := n - 1; i >= 0; i-- {
		cols, vals := c.upper.Row(i)
		sum := b[i]
		for k, j := range cols {
			sum -= vals[k] * b[j]
		}
		b[i] = sum / c.diag[i]
	}
}

// Det returns the determinant (the squared product of the diagonal of L).
func (c *Cholesky) Det() float64 {
	det := 1.0
	for _, d := range c.diag {
		det *= d * d
	}
	return det
}

// FactorSPD factors a with Cholesky when possible, falling back to LU with
// partial pivoting otherwise. Callers with matrices that are SPD by
// construction get the cheap path without committing to it.
func FactorSPD(a *Matrix) (Factorization, error) {
	if ch, err := FactorCholesky(a); err == nil {
		return ch, nil
	}
	return Factor(a)
}
