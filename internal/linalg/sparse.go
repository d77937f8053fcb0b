package linalg

import (
	"fmt"
	"math"

	"nontree/internal/scratch"
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
	// Bucket the stamps by row, in stamp order: count each row's stamps in
	// ptr[i+1], then use ptr[i] as row i's cursor, which leaves it at the
	// row's end. Then merge each row into its sorted sums, packed to the
	// left in place: a stamp adds to the sum of an equal column, which
	// earlier stamps created, or is inserted as 0+v. MNA rows hold a
	// handful of stamps, so the insertion stays cheap.
	ints := make([]int, rows+1+len(stamps))
	ptr, col, val := ints[:rows+1], ints[rows+1:], make([]float64, len(stamps))
	for _, st := range stamps {
		if st.Row < 0 || st.Row >= rows || st.Col < 0 || st.Col >= cols {
			panic(fmt.Sprintf("linalg: stamp (%d,%d) outside %dx%d matrix", st.Row, st.Col, rows, cols))
		}
		ptr[st.Row+1]++
	}
	for i := 0; i < rows; i++ {
		ptr[i+1] += ptr[i]
	}
	for _, st := range stamps {
		k := ptr[st.Row]
		col[k], val[k] = st.Col, st.Val
		ptr[st.Row]++
	}
	lo, out := 0, 0
	for i := 0; i < rows; i++ {
		hi, start := ptr[i], out
		ptr[i] = start
		for k := lo; k < hi; k++ {
			c, v := col[k], val[k]
			at := out
			for at > start && col[at-1] > c {
				at--
			}
			if at > start && col[at-1] == c {
				val[at-1] += v
				continue
			}
			for j := out; j > at; j-- {
				col[j], val[j] = col[j-1], val[j-1]
			}
			col[at], val[at] = c, 0+v
			out++
		}
		lo = hi
	}
	ptr[rows] = out
	return &Sparse{Rows: rows, Cols: cols, ptr: ptr, col: col[:out], val: val[:out]}
}

// NewCSR returns the rows × cols matrix whose row i stores the values
// val[ptr[i]:ptr[i+1]] at the columns col[ptr[i]:ptr[i+1]], taking the
// slices over: the caller must not modify them afterwards. It panics
// unless ptr runs from 0 to len(col) == len(val) in rows+1 nondecreasing
// steps and each row's columns lie in the matrix, strictly ascending.
func NewCSR(rows, cols int, ptr, col []int, val []float64) *Sparse {
	checkCSR(rows, cols, ptr, col, val)
	return &Sparse{Rows: rows, Cols: cols, ptr: ptr, col: col, val: val}
}

// checkCSR panics unless the arrays form a rows × cols matrix as NewCSR
// requires. It is kept out of NewCSR so that NewCSR inlines and the matrix
// it returns can stay on the caller's stack.
func checkCSR(rows, cols int, ptr, col []int, val []float64) {
	if rows < 0 || cols < 0 || len(ptr) != rows+1 || ptr[0] != 0 || ptr[rows] != len(col) || len(col) != len(val) {
		panic(fmt.Sprintf("linalg: CSR arrays (%d pointers, %d columns, %d values) do not fit %dx%d",
			len(ptr), len(col), len(val), rows, cols))
	}
	for i := 0; i < rows; i++ {
		lo, hi := ptr[i], ptr[i+1]
		if lo > hi || hi > len(col) || lo < hi && (col[lo] < 0 || col[hi-1] >= cols) {
			panic(fmt.Sprintf("linalg: CSR row %d: span [%d, %d) out of order or a column outside %d", i, lo, hi, cols))
		}
		for k := lo + 1; k < hi; k++ {
			if col[k] <= col[k-1] {
				panic(fmt.Sprintf("linalg: CSR row %d: columns %v not ascending", i, col[lo:hi]))
			}
		}
	}
}

// Row returns row i's stored columns (ascending) and values. The slices
// alias the matrix and must not be modified.
func (m *Sparse) Row(i int) (cols []int, vals []float64) {
	lo, hi := m.ptr[i], m.ptr[i+1]
	return m.col[lo:hi], m.val[lo:hi]
}

// at returns element (i, j), zero when it is not stored.
func (m *Sparse) at(i, j int) float64 {
	for k := m.ptr[i]; k < m.ptr[i+1] && m.col[k] <= j; k++ {
		if m.col[k] == j {
			return m.val[k]
		}
	}
	return 0
}

// maxAbs returns the largest magnitude stored in m.
func (m *Sparse) maxAbs() float64 {
	var largest float64
	for _, v := range m.val {
		if av := math.Abs(v); av > largest {
			largest = av
		}
	}
	return largest
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

// Factor computes the LU factorization of m with partial pivoting, P·A =
// L·U. It is the dense elimination run over the stored entries: column k
// pivots on its largest magnitude, the first in row position order among
// equals, and fails the same pivotTolerance test; each entry receives its
// updates in ascending k order, and only products with an exact-zero
// factor are skipped. For finite m with pivots of finite reciprocal, every
// pivot and factor value is therefore bit-identical to eliminating
// m.Dense() densely, and the work is proportional to the nonzeros of the
// factors, not to n³. Scratch is reused, so a warm factorization allocates
// only its result, and concurrent calls are safe.
func (m *Sparse) Factor() (*LU, error) {
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("linalg: cannot factor %dx%d non-square matrix", m.Rows, m.Cols)
	}
	maxAbs := m.maxAbs()
	if maxAbs == 0 && m.Rows > 0 {
		return nil, ErrSingular
	}
	// Work on a copy of the idle scratch: its slices then live on the stack
	// while they grow, sparing the garbage collector's write barrier.
	idle := luScratch.Get()
	w := *idle
	lu, err := w.factor(m, maxAbs*pivotTolerance)
	*idle = w
	luScratch.Put(idle)
	return lu, err
}

// luWork is the scratch of one sparse LU factorization. Rows are kept by
// their original index r and move between positions by swapping rowAt and
// posOf. Row r's active entries, those in the columns not yet eliminated,
// are col/val[beg[r]:end[r]] in ascending column order; an update writes
// the merged row to the end of col/val. Column j's list links every row
// holding an entry there, fill included: head[j], then next[e], with the
// row rows[e].
type luWork struct {
	rowAt, posOf, beg, end []int
	col                    []int
	val                    []float64
	head, next, rows       []int
	// The multipliers of L as (lRow, lCol, lVal), in elimination order,
	// and the rows of U as they become final: position k's pivot, and its
	// nonzeros right of the diagonal at uCol/uVal[uPtr[k]:uPtr[k+1]].
	lRow, lCol, uCol, uPtr, pivot []int
	lVal, uVal, diag              []float64
}

var luScratch = scratch.New[luWork]()

// resize returns s with length n, reusing its storage when it is large
// enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// link records an entry of row r in column j.
func (w *luWork) link(j, r int) {
	w.rows = append(w.rows, r)
	w.next = append(w.next, w.head[j])
	w.head[j] = len(w.rows) - 1
}

// factor eliminates m, failing on a pivot of magnitude at most threshold,
// and packs the factors.
func (w *luWork) factor(m *Sparse, threshold float64) (*LU, error) {
	n := m.Rows
	w.rowAt, w.posOf, w.beg, w.end = resize(w.rowAt, n), resize(w.posOf, n), resize(w.beg, n), resize(w.end, n)
	w.head, w.pivot, w.diag = resize(w.head, n), resize(w.pivot, n), resize(w.diag, n)
	w.col, w.val = append(w.col[:0], m.col...), append(w.val[:0], m.val...)
	w.next, w.rows = w.next[:0], w.rows[:0]
	w.lRow, w.lCol, w.lVal = w.lRow[:0], w.lCol[:0], w.lVal[:0]
	w.uCol, w.uVal, w.uPtr = w.uCol[:0], w.uVal[:0], append(w.uPtr[:0], 0)
	for j := range w.head {
		w.head[j] = -1
	}
	for r := 0; r < n; r++ {
		w.rowAt[r], w.posOf[r], w.beg[r], w.end[r] = r, r, m.ptr[r], m.ptr[r+1]
		for _, j := range m.col[m.ptr[r]:m.ptr[r+1]] {
			w.link(j, r)
		}
	}
	sign := 1
	for k := 0; k < n; k++ {
		// Every row not yet pivoted holds only columns ≥ k, so its entry
		// in column k, if any, is its first active one. The dense scan
		// keeps the first of equal magnitudes in row position order; the
		// column list is unordered, so a tie goes to the lower position
		// explicitly.
		p, largest := k, 0.0
		if r := w.rowAt[k]; w.beg[r] < w.end[r] && w.col[w.beg[r]] == k {
			largest = math.Abs(w.val[w.beg[r]])
		}
		for e := w.head[k]; e >= 0; e = w.next[e] {
			if pos := w.posOf[w.rows[e]]; pos > k {
				if v := math.Abs(w.val[w.beg[w.rows[e]]]); v > largest || v == largest && pos < p {
					p, largest = pos, v
				}
			}
		}
		if largest <= threshold {
			return nil, fmt.Errorf("%w (pivot column %d)", ErrSingular, k)
		}
		pr := w.rowAt[p]
		if p != k {
			w.rowAt[k], w.rowAt[p] = pr, w.rowAt[k]
			w.posOf[pr], w.posOf[w.rowAt[p]] = k, p
			sign = -sign
		}
		w.pivot[k] = p
		w.diag[k] = w.val[w.beg[pr]]
		// U keeps its nonzeros only, so the updates skip exactly the
		// products with a zero U factor; the dense loop's leave their
		// entries unchanged up to the sign of zero.
		for e := w.beg[pr] + 1; e < w.end[pr]; e++ {
			if w.val[e] != 0 {
				w.uCol = append(w.uCol, w.col[e])
				w.uVal = append(w.uVal, w.val[e])
			}
		}
		w.uPtr = append(w.uPtr, len(w.uCol))

		inv := 1 / w.diag[k]
		for e := w.head[k]; e >= 0; e = w.next[e] {
			r := w.rows[e]
			if w.posOf[r] <= k {
				continue
			}
			f := w.val[w.beg[r]] * inv
			w.beg[r]++
			if f == 0 {
				continue // as in the dense loop, which drops the zero from L
			}
			w.lRow = append(w.lRow, r)
			w.lCol = append(w.lCol, k)
			w.lVal = append(w.lVal, f)
			w.update(r, f, w.uPtr[k], w.uPtr[k+1])
		}
	}
	return w.pack(sign), nil
}

// update subtracts f times U's row uCol/uVal[lo:hi] from row r's active
// entries, creating fill where the row holds no entry.
func (w *luWork) update(r int, f float64, lo, hi int) {
	a, end := w.beg[r], w.end[r]
	w.beg[r] = len(w.col)
	for a < end || lo < hi {
		switch {
		case lo == hi || a < end && w.col[a] < w.uCol[lo]:
			w.col = append(w.col, w.col[a])
			w.val = append(w.val, w.val[a])
			a++
		case a == end || w.uCol[lo] < w.col[a]:
			w.col = append(w.col, w.uCol[lo])
			w.val = append(w.val, 0-f*w.uVal[lo])
			w.link(w.uCol[lo], r)
			lo++
		default:
			w.col = append(w.col, w.col[a])
			w.val = append(w.val, w.val[a]-f*w.uVal[lo])
			a++
			lo++
		}
	}
	w.end[r] = len(w.col)
}

// pack copies the factors into one exactly sized LU: row i of the result
// holds the multipliers of the row pivoted into position i, which the
// elimination produced in ascending column order, then its U row.
func (w *luWork) pack(sign int) *LU {
	n := len(w.pivot)
	nnz := len(w.lVal) + len(w.uVal)
	ints, vals := make([]int, 3*n+1+nnz), make([]float64, n+nnz)
	f := &LU{n: n, sign: sign, pivot: ints[:n:n], ptr: ints[n : 2*n+1 : 2*n+1], mid: ints[2*n+1 : 3*n+1 : 3*n+1],
		col: ints[3*n+1:], val: vals[:nnz:nnz], diag: vals[nnz:]}
	copy(f.pivot, w.pivot)
	copy(f.diag, w.diag)
	for _, r := range w.lRow {
		f.mid[w.posOf[r]]++
	}
	for i := 0; i < n; i++ {
		f.mid[i] += f.ptr[i]
		u := copy(f.col[f.mid[i]:], w.uCol[w.uPtr[i]:w.uPtr[i+1]])
		copy(f.val[f.mid[i]:], w.uVal[w.uPtr[i]:w.uPtr[i+1]])
		f.ptr[i+1] = f.mid[i] + u
		w.beg[i] = f.ptr[i]
	}
	for e, r := range w.lRow {
		i := w.posOf[r]
		f.col[w.beg[i]], f.val[w.beg[i]] = w.lCol[e], w.lVal[e]
		w.beg[i]++
	}
	return f
}
