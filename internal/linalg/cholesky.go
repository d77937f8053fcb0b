package linalg

import (
	"errors"
	"fmt"
	"math"

	"nontree/internal/scratch"
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

// FactorCholesky computes the Cholesky factorization of m, which must be
// symmetric positive definite. Symmetry is checked over the stored entries
// up front, to 1e-12 of the largest magnitude; definiteness falls out of
// the factorization itself. The rows of L are computed in order, each
// entry as its dense formula L[i][j] = (A[i][j] − Σ_{k<j} L[i][k]·L[j][k]) /
// L[j][j] with the sum taken in ascending k over the nonzero products
// only, so for finite m every factor value is bit-identical to the dense
// loop's, and the work is proportional to the nonzeros of L. Scratch is
// reused, so a warm factorization allocates only its result.
func (m *Sparse) FactorCholesky() (*Cholesky, error) {
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("linalg: cannot Cholesky-factor %dx%d non-square matrix", m.Rows, m.Cols)
	}
	maxAbs := m.maxAbs()
	tol := maxAbs * 1e-12
	for i := 0; i < m.Rows; i++ {
		for k := m.ptr[i]; k < m.ptr[i+1]; k++ {
			if j := m.col[k]; j != i && math.Abs(m.val[k]-m.at(j, i)) > tol {
				return nil, fmt.Errorf("%w: asymmetric at (%d,%d)", ErrNotSPD, min(i, j), max(i, j))
			}
		}
	}
	return m.cholesky(maxAbs)
}

// cholesky factors m, whose largest magnitude is maxAbs, from its lower
// triangle and diagonal.
func (m *Sparse) cholesky(maxAbs float64) (*Cholesky, error) {
	w := cholScratch.Get()
	defer cholScratch.Put(w)
	return w.factor(m, maxAbs*1e-14)
}

// cholWork is the scratch of one sparse Cholesky factorization. The rows
// of L computed so far are col/val[ptr[i]:ptr[i+1]], ascending; entry e
// lies in row rows[e], and column k's entries are linked from head[k]
// through next[e]. While row i is computed, x[j] holds its running sum for
// each column j of pattern (ascending), and mark[j] == i flags j as in the
// pattern.
type cholWork struct {
	ptr, col, rows, head, next, count, pattern, mark []int
	val, x, diag                                     []float64
}

var cholScratch = scratch.New[cholWork]()

// factor computes L row by row, failing on a pivot at most minPivot.
func (w *cholWork) factor(m *Sparse, minPivot float64) (*Cholesky, error) {
	n := m.Rows
	head, count, mark := scratch.Resize(w.head, n), scratch.Resize(w.count, n), scratch.Resize(w.mark, n)
	x, diag := scratch.Resize(w.x, n), scratch.Resize(w.diag, n)
	ptr, col, val, rows, next := append(w.ptr[:0], 0), w.col[:0], w.val[:0], w.rows[:0], w.next[:0]
	for j := 0; j < n; j++ {
		head[j], count[j], mark[j] = -1, 0, -1
	}
	pattern := w.pattern
	for i := 0; i < n; i++ {
		pattern = pattern[:0]
		var d float64
		cols, vals := m.Row(i)
		for k, j := range cols {
			if j < i {
				x[j], mark[j] = vals[k], i
				pattern = append(pattern, j)
			} else if j == i {
				d = vals[k]
			}
		}
		for p := 0; p < len(pattern); p++ {
			k := pattern[p]
			lik := x[k] / diag[k]
			if lik == 0 {
				continue
			}
			d -= lik * lik
			// Row j of column k holds L[j][k]; L[i][k]·L[j][k] is the next
			// term of L[i][j]'s sum, the columns of pattern being visited
			// in ascending order.
			for e := head[k]; e >= 0; e = next[e] {
				j := rows[e]
				if mark[j] != i {
					x[j], mark[j] = 0, i
					// Insert j in order; pattern[p] = k < j stops the shift.
					pattern = append(pattern, j)
					for q := len(pattern) - 1; pattern[q-1] > j; q-- {
						pattern[q], pattern[q-1] = pattern[q-1], j
					}
				}
				x[j] -= lik * val[e]
			}
			col, val, rows, next = append(col, k), append(val, lik), append(rows, i), append(next, head[k])
			head[k] = len(col) - 1
			count[k]++
		}
		ptr = append(ptr, len(col))
		if d <= minPivot {
			return nil, fmt.Errorf("%w: pivot %d is %g", ErrNotSPD, i, d)
		}
		diag[i] = math.Sqrt(d)
	}
	keep(&w.ptr, ptr)
	keep(&w.col, col)
	keep(&w.rows, rows)
	keep(&w.head, head)
	keep(&w.next, next)
	keep(&w.count, count)
	keep(&w.pattern, pattern)
	keep(&w.mark, mark)
	keep(&w.val, val)
	keep(&w.x, x)
	keep(&w.diag, diag)
	return packCholesky(ptr, col, val, rows, count, diag), nil
}

// keep stores s in *dst when it outgrew *dst's storage, so the scratch
// keeps the larger buffer. Working on local slices and skipping the store
// otherwise spares the garbage collector's write barriers.
func keep[T any](dst *[]T, s []T) {
	if cap(s) > cap(*dst) {
		*dst = s
	}
}

// packCholesky copies the factor into one exactly sized Cholesky: the diagonal,
// the rows of L (ptr, col, val, with rows[e] the row of entry e), and the
// rows of Lᵀ, whose lengths are count. Visiting the rows of L in order
// fills each row of Lᵀ in ascending index order.
func packCholesky(ptr, col []int, val []float64, rows, count []int, diag []float64) *Cholesky {
	n, nnz := len(diag), len(col)
	intBuf, valBuf := make([]int, 3*n+2+2*nnz), make([]float64, n+2*nnz)
	takeInts := func(k int) []int { s := intBuf[:k:k]; intBuf = intBuf[k:]; return s }
	takeVals := func(k int) []float64 { s := valBuf[:k:k]; valBuf = valBuf[k:]; return s }
	c := &Cholesky{n: n, diag: takeVals(n),
		lower: Sparse{Rows: n, Cols: n, ptr: takeInts(n + 1), col: takeInts(nnz), val: takeVals(nnz)},
		upper: Sparse{Rows: n, Cols: n, ptr: takeInts(n + 1), col: takeInts(nnz), val: takeVals(nnz)},
	}
	copy(c.diag, diag)
	copy(c.lower.ptr, ptr)
	copy(c.lower.col, col)
	copy(c.lower.val, val)
	for j := 0; j < n; j++ {
		c.upper.ptr[j+1] = c.upper.ptr[j] + count[j]
	}
	next := takeInts(n)
	copy(next, c.upper.ptr[:n])
	for e, j := range col {
		c.upper.col[next[j]], c.upper.val[next[j]] = rows[e], val[e]
		next[j]++
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

// FactorSPD factors a with Cholesky when possible, falling back to the
// sparse LU with partial pivoting when a pivot is not positive. It is for
// matrices that are symmetric by construction, such as conductance
// matrices: unlike FactorCholesky it does not check symmetry, and its
// Cholesky reads only the lower triangle and the diagonal. Callers with
// matrices that are SPD by construction get the cheap path without
// committing to it.
func FactorSPD(a *Sparse) (Factorization, error) {
	if a.Rows == a.Cols {
		if ch, err := a.cholesky(a.maxAbs()); err == nil {
			return ch, nil
		}
	}
	return a.Factor()
}
