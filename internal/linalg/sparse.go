package linalg

import (
	"fmt"
	"slices"
)

// Sparse is a matrix in compressed-sparse-row form: row i stores the values
// val[ptr[i]:ptr[i+1]] at the columns col[ptr[i]:ptr[i+1]], in ascending
// column order. Every operation reproduces the bits of its dense Matrix
// counterpart, so a sparse computation can replace a dense one without
// changing a result.
type Sparse struct {
	Rows, Cols int
	ptr        []int
	col        []int
	val        []float64
}

// Stamp is one contribution v to element (Row, Col) of a matrix under
// assembly — the sparse form of a Matrix.Add call.
type Stamp struct {
	Row, Col int
	Val      float64
}

// NewSparse builds a rows × cols matrix from stamps. Stamps to one element
// are summed in stamp order starting from zero (0+v1+v2+…), as repeated
// Matrix.Add calls accumulate them. Every stamped element is stored, even
// when its sum is zero. It panics on a stamp outside the matrix.
func NewSparse(rows, cols int, stamps []Stamp) *Sparse {
	if rows < 0 || cols < 0 {
		panic("linalg: negative matrix dimension")
	}
	for _, st := range stamps {
		if st.Row < 0 || st.Row >= rows || st.Col < 0 || st.Col >= cols {
			panic(fmt.Sprintf("linalg: stamp (%d,%d) outside %dx%d matrix", st.Row, st.Col, rows, cols))
		}
	}
	// Bucket the stamps by row, then order each row by column with an
	// insertion sort; both keep stamps to one element in stamp order. MNA
	// rows hold a handful of stamps, so the insertion sort stays cheap.
	start := make([]int, rows+1)
	for _, st := range stamps {
		start[st.Row+1]++
	}
	for i := 0; i < rows; i++ {
		start[i+1] += start[i]
	}
	sorted := make([]Stamp, len(stamps))
	next := slices.Clone(start[:rows])
	for _, st := range stamps {
		sorted[next[st.Row]] = st
		next[st.Row]++
	}
	m := &Sparse{Rows: rows, Cols: cols, ptr: make([]int, rows+1),
		col: make([]int, 0, len(stamps)), val: make([]float64, 0, len(stamps))}
	for i := 0; i < rows; i++ {
		row := sorted[start[i]:start[i+1]]
		for a := 1; a < len(row); a++ {
			for b := a; b > 0 && row[b].Col < row[b-1].Col; b-- {
				row[b], row[b-1] = row[b-1], row[b]
			}
		}
		for k, st := range row {
			if k == 0 || st.Col != row[k-1].Col {
				m.col = append(m.col, st.Col)
				m.val = append(m.val, 0)
			}
			m.val[len(m.val)-1] += st.Val
		}
		m.ptr[i+1] = len(m.col)
	}
	return m
}

// Row returns row i's stored columns (ascending) and values. The slices
// alias the matrix and must not be modified.
func (m *Sparse) Row(i int) (cols []int, vals []float64) {
	lo, hi := m.ptr[i], m.ptr[i+1]
	return m.col[lo:hi], m.val[lo:hi]
}

// MulVecInto computes dst = m · x without allocating; dst must not alias x.
// Each row is summed left to right over its stored elements, which for
// finite x is bit-identical to Matrix.MulVecInto on the dense matrix: the
// skipped terms are zeros added to a sum that starts at +0. It panics on
// dimension mismatch.
func (m *Sparse) MulVecInto(dst, x []float64) {
	if len(x) != m.Cols || len(dst) != m.Rows {
		panic(fmt.Sprintf("linalg: MulVec dimension mismatch: %dx%d matrix, %d vector into %d",
			m.Rows, m.Cols, len(x), len(dst)))
	}
	for i := range dst {
		cols, vals := m.col[m.ptr[i]:m.ptr[i+1]], m.val[m.ptr[i]:m.ptr[i+1]]
		var sum float64
		for k, j := range cols {
			sum += vals[k] * x[j]
		}
		dst[i] = sum
	}
}

// AddScaled returns m + s·other as a new matrix on the union of the two
// patterns; m and other are unchanged. Each element is a + s*b with a
// missing element read as 0, the expression Matrix.AddScaled evaluates, so
// Dense() of the result equals the dense sum bit for bit.
func (m *Sparse) AddScaled(other *Sparse, s float64) *Sparse {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		panic("linalg: AddScaled dimension mismatch")
	}
	out := &Sparse{Rows: m.Rows, Cols: m.Cols, ptr: make([]int, m.Rows+1)}
	out.col = make([]int, 0, len(m.col)+len(other.col))
	out.val = make([]float64, 0, len(m.val)+len(other.val))
	for i := 0; i < m.Rows; i++ {
		ac, av := m.Row(i)
		bc, bv := other.Row(i)
		for len(ac) > 0 || len(bc) > 0 {
			var j int
			var a, b float64
			switch {
			case len(bc) == 0 || (len(ac) > 0 && ac[0] < bc[0]):
				j, a = ac[0], av[0]
				ac, av = ac[1:], av[1:]
			case len(ac) == 0 || bc[0] < ac[0]:
				j, b = bc[0], bv[0]
				bc, bv = bc[1:], bv[1:]
			default:
				j, a, b = ac[0], av[0], bv[0]
				ac, av, bc, bv = ac[1:], av[1:], bc[1:], bv[1:]
			}
			out.col = append(out.col, j)
			out.val = append(out.val, a+s*b)
		}
		out.ptr[i+1] = len(out.col)
	}
	return out
}

// Dense expands m into a new dense matrix.
func (m *Sparse) Dense() *Matrix {
	d := NewMatrix(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		cols, vals := m.Row(i)
		for k, j := range cols {
			d.Data[i*m.Cols+j] = vals[k]
		}
	}
	return d
}

// Factor computes the LU factorization of m with the same elimination, and
// so the same pivots and factor bits, as Factor(m.Dense()).
func (m *Sparse) Factor() (*LU, error) {
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("linalg: cannot factor %dx%d non-square matrix", m.Rows, m.Cols)
	}
	return factor(m.Dense())
}
