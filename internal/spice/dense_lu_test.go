package spice

import (
	"fmt"
	"math"

	"nontree/internal/linalg"
)

// denseLU is dense Gaussian elimination with partial pivoting, the
// factorization the sparse LU of internal/linalg replaced. The dense
// references of spice_test.go factor with it, so the equivalence tests
// referee the sparse elimination on the matrices a simulation factors:
// every pivot, factor value and solve must match it bit for bit.
type denseLU struct {
	lu    *linalg.Matrix // L below the diagonal (unit diagonal implied), U on and above
	pivot []int
}

// densePivotTolerance is linalg's singularity test: a pivot at most this
// times the largest magnitude in the matrix is singular.
const densePivotTolerance = 1e-14

// factorDense eliminates a copy of a, pivoting on the largest magnitude in
// each column (the first in row order among equals).
func factorDense(a *linalg.Matrix) (*denseLU, error) {
	lu := a.Clone()
	n := lu.Rows
	pivot := make([]int, n)
	var maxAbs float64
	for _, v := range lu.Data {
		maxAbs = math.Max(maxAbs, math.Abs(v))
	}
	if maxAbs == 0 && n > 0 {
		return nil, linalg.ErrSingular
	}
	threshold := maxAbs * densePivotTolerance
	for col := 0; col < n; col++ {
		p := col
		largest := math.Abs(lu.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(lu.At(r, col)); v > largest {
				largest = v
				p = r
			}
		}
		if largest <= threshold {
			return nil, fmt.Errorf("%w (pivot column %d)", linalg.ErrSingular, col)
		}
		if p != col {
			rowP, rowC := lu.Data[p*n:(p+1)*n], lu.Data[col*n:(col+1)*n]
			for j := range rowP {
				rowP[j], rowC[j] = rowC[j], rowP[j]
			}
		}
		pivot[col] = p
		inv := 1 / lu.At(col, col)
		for r := col + 1; r < n; r++ {
			f := lu.At(r, col) * inv
			lu.Set(r, col, f)
			if f == 0 {
				continue
			}
			rowR, rowC := lu.Data[r*n:(r+1)*n], lu.Data[col*n:(col+1)*n]
			for j := col + 1; j < n; j++ {
				rowR[j] -= f * rowC[j]
			}
		}
	}
	return &denseLU{lu: lu, pivot: pivot}, nil
}

// SolveInPlace overwrites b with the solution by substitution over the full
// dense triangles.
func (f *denseLU) SolveInPlace(b []float64) {
	n := f.lu.Rows
	for i := 0; i < n; i++ {
		if p := f.pivot[i]; p != i {
			b[i], b[p] = b[p], b[i]
		}
	}
	for i := 1; i < n; i++ {
		var sum float64
		for j, v := range f.lu.Data[i*n : i*n+i] {
			sum += v * b[j]
		}
		b[i] -= sum
	}
	for i := n - 1; i >= 0; i-- {
		row := f.lu.Data[i*n+i : (i+1)*n]
		sum := b[i]
		for j := 1; j < len(row); j++ {
			sum -= row[j] * b[i+j]
		}
		b[i] = sum / row[0]
	}
}

// Solve returns the solution for b, which is not modified.
func (f *denseLU) Solve(b []float64) []float64 {
	x := append([]float64(nil), b...)
	f.SolveInPlace(x)
	return x
}
