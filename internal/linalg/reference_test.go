package linalg

import (
	"fmt"
	"math"
	"testing"
)

// The dense factorizations the sparse ones replaced, kept verbatim as the
// bitwise referees of (*Sparse).Factor and (*Sparse).FactorCholesky: every
// pivot, sign, diagonal and kept factor entry must match them bit for bit.

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

func swapRows(m *Matrix, i, j int) {
	ri := m.Data[i*m.Cols : (i+1)*m.Cols]
	rj := m.Data[j*m.Cols : (j+1)*m.Cols]
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}

// referenceSolve is the substitution over the dense packed factors of
// eliminate that the compressed LU.SolveInPlace must reproduce bit for bit.
func referenceSolve(lu *Matrix, pivot []int, b []float64) {
	n := lu.Rows
	for i := 0; i < n; i++ {
		if p := pivot[i]; p != i {
			b[i], b[p] = b[p], b[i]
		}
	}
	for i := 1; i < n; i++ {
		row := lu.Data[i*n : i*n+i]
		var sum float64
		for j, v := range row {
			sum += v * b[j]
		}
		b[i] -= sum
	}
	for i := n - 1; i >= 0; i-- {
		row := lu.Data[i*n+i : (i+1)*n]
		sum := b[i]
		for j := 1; j < len(row); j++ {
			sum -= row[j] * b[i+j]
		}
		b[i] = sum / row[0]
	}
}

// referenceDet is the determinant over the dense packed factors.
func referenceDet(lu *Matrix, sign int) float64 {
	det := float64(sign)
	for i := 0; i < lu.Rows; i++ {
		det *= lu.At(i, i)
	}
	return det
}

// referenceCholesky is the dense factor and substitution the compressed
// Cholesky replaced: L row-major with its zeros, every solve walking the
// full triangles.
type referenceCholesky struct{ l *Matrix }

// newReferenceCholesky is the dense FactorCholesky: the symmetry check
// over the whole matrix, then L row by row.
func newReferenceCholesky(a *Matrix) (*referenceCholesky, error) {
	n := a.Rows
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
	return &referenceCholesky{l: l}, nil
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

// sameRow reports whether the stored entries cols/vals are exactly the
// nonzeros of dense, in order and bit for bit; off offsets dense's column
// indices.
func sameRow(cols []int, vals []float64, dense []float64, off int) bool {
	k := 0
	for j, v := range dense {
		if v == 0 {
			continue
		}
		if k == len(cols) || cols[k] != j+off || math.Float64bits(vals[k]) != math.Float64bits(v) {
			return false
		}
		k++
	}
	return k == len(cols)
}

// checkPackedLU compares the compressed factors lu entry by entry with the
// dense packed factors of eliminate: pivots, sign, the diagonal of U, and
// the column and bits of every nonzero of L and U.
func checkPackedLU(t *testing.T, what string, lu *LU, packed *Matrix, pivot []int, sign int) {
	t.Helper()
	n := packed.Rows
	if lu.n != n || lu.sign != sign {
		t.Fatalf("%s: n=%d sign=%d, dense n=%d sign=%d", what, lu.n, lu.sign, n, sign)
	}
	for i := 0; i < n; i++ {
		row := packed.Data[i*n : (i+1)*n]
		switch {
		case lu.pivot[i] != pivot[i]:
			t.Fatalf("%s: pivot[%d] = %d, dense %d", what, i, lu.pivot[i], pivot[i])
		case math.Float64bits(lu.diag[i]) != math.Float64bits(row[i]):
			t.Fatalf("%s: diag[%d] = %v, dense %v", what, i, lu.diag[i], row[i])
		case !sameRow(lu.col[lu.ptr[i]:lu.mid[i]], lu.val[lu.ptr[i]:lu.mid[i]], row[:i], 0):
			t.Fatalf("%s: L row %d = %v %v, dense %v", what, i,
				lu.col[lu.ptr[i]:lu.mid[i]], lu.val[lu.ptr[i]:lu.mid[i]], row[:i])
		case !sameRow(lu.col[lu.mid[i]:lu.ptr[i+1]], lu.val[lu.mid[i]:lu.ptr[i+1]], row[i+1:], i+1):
			t.Fatalf("%s: U row %d = %v %v, dense %v", what, i,
				lu.col[lu.mid[i]:lu.ptr[i+1]], lu.val[lu.mid[i]:lu.ptr[i+1]], row[i+1:])
		}
	}
}

// checkPackedCholesky compares the compressed factor ch entry by entry with
// the dense L of ref: the diagonal, every row of L and every row of Lᵀ.
func checkPackedCholesky(t *testing.T, what string, ch *Cholesky, ref *referenceCholesky) {
	t.Helper()
	l := ref.l
	n := l.Rows
	if ch.n != n {
		t.Fatalf("%s: n=%d, dense %d", what, ch.n, n)
	}
	col := make([]float64, n)
	for i := 0; i < n; i++ {
		if math.Float64bits(ch.diag[i]) != math.Float64bits(l.At(i, i)) {
			t.Fatalf("%s: diag[%d] = %v, dense %v", what, i, ch.diag[i], l.At(i, i))
		}
		if cols, vals := ch.lower.Row(i); !sameRow(cols, vals, l.Data[i*n:i*n+i], 0) {
			t.Fatalf("%s: L row %d = %v %v, dense %v", what, i, cols, vals, l.Data[i*n:i*n+i])
		}
		for k := i + 1; k < n; k++ {
			col[k] = l.At(k, i)
		}
		if cols, vals := ch.upper.Row(i); !sameRow(cols, vals, col[i+1:], i+1) {
			t.Fatalf("%s: Lᵀ row %d = %v %v, dense %v", what, i, cols, vals, col[i+1:])
		}
	}
}

// factorMatrix is the sparse LU of the dense matrix a's nonzeros; a is not
// modified.
func factorMatrix(a *Matrix) (*LU, error) { return a.sparse().Factor() }

// sparse returns the nonzeros of m as a Sparse matrix.
func (m *Matrix) sparse() *Sparse {
	s := &Sparse{Rows: m.Rows, Cols: m.Cols, ptr: make([]int, m.Rows+1)}
	for i := 0; i < m.Rows; i++ {
		for j, v := range m.Data[i*m.Cols : (i+1)*m.Cols] {
			if v != 0 {
				s.col = append(s.col, j)
				s.val = append(s.val, v)
			}
		}
		s.ptr[i+1] = len(s.col)
	}
	return s
}
