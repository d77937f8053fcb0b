// Package linalg provides the linear algebra needed by the circuit
// simulator and the general-graph Elmore analysis: a dense row-major matrix,
// a compressed-sparse-row matrix assembled from stamps, and LU (with
// partial pivoting) and Cholesky factorizations, both stored as compressed
// factors.
//
// The MNA systems of the routed nets are mostly zeros. On 5–30-pin MST
// circuits with 500 µm segments (34–112 unknowns) the iteration matrix
// G + 2C/h and the history matrix 2C/h − G are 3–9% nonzero, and their LU
// factors in natural order 5–16%. A transient step therefore walks sparse
// rows only. Factorization stays one dense elimination, run a few times per
// transient of hundreds to thousands of steps, so pivots and factor values
// are those of the dense algorithm, and every sparse operation is
// bit-identical to its dense counterpart.
//
// Cholesky follows the same recipe for the grounded conductance matrices
// of the Elmore analysis. Their factors in natural node order are sparse
// (L is 6.5% nonzero at 100 pins, 3.3% at 200), so the factor keeps only
// the nonzeros of the rows of L and of Lᵀ, and the incremental evaluator's
// column solves cost O(nnz). Skipping exact zeros leaves every solve
// bit-identical to dense substitution for finite right-hand sides without
// negative zeros.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols; element (i,j) at Data[i*Cols+j]
}

// NewMatrix returns a zeroed rows × cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("linalg: negative matrix dimension")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Add accumulates v into element (i, j) — the natural operation for MNA
// stamping.
func (m *Matrix) Add(i, j int, v float64) { m.Data[i*m.Cols+j] += v }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Zero resets every element to 0, reusing storage.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// MulVec computes y = m · x. It panics on dimension mismatch (programmer
// error, not input error).
func (m *Matrix) MulVec(x []float64) []float64 {
	y := make([]float64, m.Rows)
	m.MulVecInto(y, x)
	return y
}

// MulVecInto computes dst = m · x without allocating; dst must not alias x.
// It panics on dimension mismatch.
func (m *Matrix) MulVecInto(dst, x []float64) {
	if len(x) != m.Cols || len(dst) != m.Rows {
		panic(fmt.Sprintf("linalg: MulVec dimension mismatch: %dx%d matrix, %d vector into %d",
			m.Rows, m.Cols, len(x), len(dst)))
	}
	for i := range dst {
		row := m.Data[i*m.Cols:][:len(x)]
		// Unrolled, but summed strictly left to right like the plain loop, so
		// the result is bit-identical to it.
		var sum float64
		j := 0
		for ; j+4 <= len(row); j += 4 {
			sum += row[j] * x[j]
			sum += row[j+1] * x[j+1]
			sum += row[j+2] * x[j+2]
			sum += row[j+3] * x[j+3]
		}
		for ; j < len(row); j++ {
			sum += row[j] * x[j]
		}
		dst[i] = sum
	}
}

// AddScaled accumulates s·other into m (m += s·other).
func (m *Matrix) AddScaled(other *Matrix, s float64) {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		panic("linalg: AddScaled dimension mismatch")
	}
	for i, v := range other.Data {
		m.Data[i] += s * v
	}
}

// ErrSingular is returned when factorization encounters a pivot too small
// to be numerically meaningful — e.g. a floating circuit node with no DC
// path to ground.
var ErrSingular = errors.New("linalg: matrix is singular to working precision")

// LU is an LU factorization with partial pivoting, P·A = L·U, kept in
// compressed form: row i's nonzeros of the unit lower-triangular L (columns
// < i) are val[ptr[i]:mid[i]], those of U above the diagonal (columns > i)
// val[mid[i]:ptr[i+1]], each in ascending column order, and U's diagonal is
// diag[i]. Exact zeros of the packed factor are dropped: a substitution
// sums the same nonzero terms in the same column order, so it is
// bit-identical to one over the dense rows.
type LU struct {
	n        int
	pivot    []int
	sign     int
	ptr, mid []int
	col      []int
	val      []float64
	diag     []float64
}

// pivotTolerance scales the singularity test relative to the largest
// element magnitude seen in the factorization.
const pivotTolerance = 1e-14

// Factor computes the LU factorization of a (a is not modified).
func Factor(a *Matrix) (*LU, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("linalg: cannot factor %dx%d non-square matrix", a.Rows, a.Cols)
	}
	return factor(a.Clone())
}

// factor factors the square matrix lu in place and compresses the result.
func factor(lu *Matrix) (*LU, error) {
	pivot, sign, err := eliminate(lu)
	if err != nil {
		return nil, err
	}
	return compress(lu, pivot, sign), nil
}

// eliminate overwrites the square matrix lu with its packed LU factors
// (unit lower-triangular L below the diagonal, U on and above it) and
// returns the row interchanges and the permutation's sign.
func eliminate(lu *Matrix) (pivot []int, sign int, err error) {
	n := lu.Rows
	pivot = make([]int, n)
	sign = 1

	var maxAbs float64
	for _, v := range lu.Data {
		if av := math.Abs(v); av > maxAbs {
			maxAbs = av
		}
	}
	if maxAbs == 0 {
		if n == 0 {
			return pivot, sign, nil
		}
		return nil, 0, ErrSingular
	}
	threshold := maxAbs * pivotTolerance

	for col := 0; col < n; col++ {
		// Partial pivoting: pick the largest magnitude in this column.
		p := col
		largest := math.Abs(lu.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(lu.At(r, col)); v > largest {
				largest = v
				p = r
			}
		}
		if largest <= threshold {
			return nil, 0, fmt.Errorf("%w (pivot column %d)", ErrSingular, col)
		}
		if p != col {
			swapRows(lu, p, col)
			sign = -sign
		}
		pivot[col] = p

		inv := 1 / lu.At(col, col)
		for r := col + 1; r < n; r++ {
			f := lu.At(r, col) * inv
			lu.Set(r, col, f)
			if f == 0 {
				continue
			}
			rowR := lu.Data[r*n : (r+1)*n]
			rowC := lu.Data[col*n : (col+1)*n]
			for j := col + 1; j < n; j++ {
				rowR[j] -= f * rowC[j]
			}
		}
	}
	return pivot, sign, nil
}

// compress keeps the nonzeros of the packed factors lu.
func compress(lu *Matrix, pivot []int, sign int) *LU {
	n := lu.Rows
	f := &LU{n: n, pivot: pivot, sign: sign,
		ptr: make([]int, n+1), mid: make([]int, n), diag: make([]float64, n)}
	nnz := 0
	for _, v := range lu.Data {
		if v != 0 {
			nnz++
		}
	}
	f.col = make([]int, 0, nnz)
	f.val = make([]float64, 0, nnz)
	for i := 0; i < n; i++ {
		row := lu.Data[i*n : (i+1)*n]
		for j, v := range row {
			if j == i {
				f.mid[i] = len(f.col)
				f.diag[i] = v
			} else if v != 0 {
				f.col = append(f.col, j)
				f.val = append(f.val, v)
			}
		}
		f.ptr[i+1] = len(f.col)
	}
	return f
}

func swapRows(m *Matrix, i, j int) {
	ri := m.Data[i*m.Cols : (i+1)*m.Cols]
	rj := m.Data[j*m.Cols : (j+1)*m.Cols]
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}

// Solve returns x with A·x = b. b is not modified.
func (f *LU) Solve(b []float64) []float64 {
	x := make([]float64, len(b))
	copy(x, b)
	f.SolveInPlace(x)
	return x
}

// SolveInPlace overwrites b with the solution of A·x = b. This is the hot
// path of transient simulation (one call per timestep), so it allocates
// nothing. For finite b without negative zeros the result is bit-identical
// to substituting over the dense packed factors.
func (f *LU) SolveInPlace(b []float64) {
	n := f.n
	if len(b) != n {
		panic(fmt.Sprintf("linalg: Solve dimension mismatch: %d vs %d", len(b), n))
	}
	// Apply the row permutation.
	for i := 0; i < n; i++ {
		if p := f.pivot[i]; p != i {
			b[i], b[p] = b[p], b[i]
		}
	}
	// Forward substitution with unit lower-triangular L.
	for i := 1; i < n; i++ {
		cols, vals := f.col[f.ptr[i]:f.mid[i]], f.val[f.ptr[i]:f.mid[i]]
		var sum float64
		for k, j := range cols {
			sum += vals[k] * b[j]
		}
		b[i] -= sum
	}
	// Back substitution with U.
	for i := n - 1; i >= 0; i-- {
		cols, vals := f.col[f.mid[i]:f.ptr[i+1]], f.val[f.mid[i]:f.ptr[i+1]]
		sum := b[i]
		for k, j := range cols {
			sum -= vals[k] * b[j]
		}
		b[i] = sum / f.diag[i]
	}
}

// Det returns the determinant of the factored matrix.
func (f *LU) Det() float64 {
	det := float64(f.sign)
	for _, d := range f.diag {
		det *= d
	}
	return det
}

// SolveDense solves A·X = B column by column, where B's columns are the
// right-hand sides; it returns X with the same shape as B.
func (f *LU) SolveDense(b *Matrix) *Matrix {
	n := f.n
	if b.Rows != n {
		panic("linalg: SolveDense dimension mismatch")
	}
	x := NewMatrix(b.Rows, b.Cols)
	col := make([]float64, n)
	for j := 0; j < b.Cols; j++ {
		for i := 0; i < n; i++ {
			col[i] = b.At(i, j)
		}
		f.SolveInPlace(col)
		for i := 0; i < n; i++ {
			x.Set(i, j, col[i])
		}
	}
	return x
}

// Residual returns max_i |(A·x - b)_i|, a cheap verification of a solve.
func Residual(a *Matrix, x, b []float64) float64 {
	ax := a.MulVec(x)
	var worst float64
	for i := range ax {
		if r := math.Abs(ax[i] - b[i]); r > worst {
			worst = r
		}
	}
	return worst
}
