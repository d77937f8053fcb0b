package spice

import (
	"fmt"
	"slices"

	"nontree/internal/linalg"
	"nontree/internal/scratch"
)

// mnaSystem is the assembled modified-nodal-analysis description of a
// circuit: C·dx/dt + G·x = b(t), where the unknown vector x holds the
// non-ground node voltages followed by one branch current per voltage
// source and per inductor. G and C are sparse in the circuit's natural node
// order; an analysis never modifies a system between assemblies, so one
// serves its DC solve and every transient run.
type mnaSystem struct {
	circuit *Circuit
	size    int // total unknowns
	nv      int // node-voltage unknowns (numNodes - 1)

	g linalg.Sparse // conductance / incidence part
	c linalg.Sparse // capacitance / inductance part

	// vsrcRow[i] is the row (and branch-current column) of voltage source i;
	// indRow[i] likewise for inductor i.
	vsrcRow []int
	indRow  []int

	// gStamps and cStamps keep the stamp lists' storage between
	// assemblies.
	gStamps, cStamps []linalg.Stamp
}

// workspace is the storage of one analysis: the assembled system, the DC
// and transient factors with the matrices they factor, the step vectors
// and the measurement's transient result. Every analysis takes one from
// workspaces and returns it on every return path, so a warm measurement
// allocates only the slices it hands back; storage grows only when a
// circuit outgrows every one before it.
type workspace struct {
	sys mnaSystem
	// zero is the empty matrix the history matrices are summed onto;
	// scaled is 2C/h, the first term of the trapezoidal history matrix.
	zero, scaled              linalg.Sparse
	lhs, histC, beLhs, beHist linalg.Sparse
	dcLU, lu, beLU            linalg.LU

	b, volts                   []float64 // DC right-hand side and node voltages
	x, bPrev, bNext, rhs, hist []float64 // transient step vectors; hist is histC·x
	prevWatch, levels          []float64
	algebraic                  []bool
	res                        TranResult // a measurement's transient runs
}

var workspaces = scratch.New[workspace]()

// release returns w for reuse, dropping its reference to the circuit.
// Nothing w holds may be used afterwards.
func (w *workspace) release() {
	w.sys.circuit = nil
	workspaces.Put(w)
}

// index maps a circuit node to its unknown index, or -1 for ground.
func (s *mnaSystem) index(node int) int { return node - 1 }

// assemble sets s to the MNA matrices of the circuit, reusing s's storage.
func (s *mnaSystem) assemble(c *Circuit) error {
	if c.numNodes <= 1 {
		return ErrEmptyCircuit
	}
	nv := c.numNodes - 1
	size := nv + len(c.vsources) + len(c.inductors)
	s.circuit, s.size, s.nv = c, size, nv
	s.vsrcRow, s.indRow = scratch.Resize(s.vsrcRow, len(c.vsources)), scratch.Resize(s.indRow, len(c.inductors))
	g, cm := s.gStamps[:0], s.cStamps[:0]

	// Resistor stamps: conductance into G.
	for _, r := range c.resistors {
		g = s.stampConductance(g, r.a, r.b, 1/r.ohms)
	}
	// Capacitor stamps: capacitance into C with the same pattern.
	for _, cap := range c.capacitors {
		cm = s.stampConductance(cm, cap.a, cap.b, cap.farads)
	}
	// Voltage sources: branch current unknowns with incidence rows.
	row := nv
	for i, v := range c.vsources {
		s.vsrcRow[i] = row
		g = s.stampBranch(g, v.pos, v.neg, row)
		row++
	}
	// Inductors: branch current unknowns; v_a - v_b - L·di/dt = 0.
	for i, l := range c.inductors {
		s.indRow[i] = row
		g = s.stampBranch(g, l.a, l.b, row)
		cm = append(cm, linalg.Stamp{Row: row, Col: row, Val: -l.henries})
		row++
	}
	s.gStamps, s.cStamps = g, cm
	if row != size {
		return fmt.Errorf("spice: internal stamping error: %d rows vs %d size", row, size)
	}
	s.g.Assemble(size, size, g)
	s.c.Assemble(size, size, cm)
	return nil
}

// stampConductance appends the standard two-terminal stamp with value v
// (a conductance for G, a capacitance for C) between nodes a and b.
func (s *mnaSystem) stampConductance(m []linalg.Stamp, a, b int, v float64) []linalg.Stamp {
	ia, ib := s.index(a), s.index(b)
	if ia >= 0 {
		m = append(m, linalg.Stamp{Row: ia, Col: ia, Val: v})
	}
	if ib >= 0 {
		m = append(m, linalg.Stamp{Row: ib, Col: ib, Val: v})
	}
	if ia >= 0 && ib >= 0 {
		m = append(m, linalg.Stamp{Row: ia, Col: ib, Val: -v}, linalg.Stamp{Row: ib, Col: ia, Val: -v})
	}
	return m
}

// stampBranch appends the stamps wiring a branch-current unknown at the
// given row between pos and neg: the current enters the node equations,
// and the branch row reads the voltage difference.
func (s *mnaSystem) stampBranch(g []linalg.Stamp, pos, neg, row int) []linalg.Stamp {
	ip, in := s.index(pos), s.index(neg)
	if ip >= 0 {
		g = append(g, linalg.Stamp{Row: ip, Col: row, Val: 1}, linalg.Stamp{Row: row, Col: ip, Val: 1})
	}
	if in >= 0 {
		g = append(g, linalg.Stamp{Row: in, Col: row, Val: -1}, linalg.Stamp{Row: row, Col: in, Val: -1})
	}
	return g
}

// algebraicRows reports in out, per MNA row, whether the row carries no
// dynamic (C-matrix) entries — i.e. it is a pure algebraic constraint such
// as a voltage-source branch row or the KCL of a capacitor-free node.
func (s *mnaSystem) algebraicRows(out []bool) []bool {
	out = scratch.Resize(out, s.size)
	for r := range out {
		_, vals := s.c.Row(r)
		out[r] = !slices.ContainsFunc(vals, func(v float64) bool { return v != 0 })
	}
	return out
}

// rhs fills b with the source vector at time t, reusing the slice.
func (s *mnaSystem) rhs(b []float64, t float64) {
	for i := range b {
		b[i] = 0
	}
	for i, v := range s.circuit.vsources {
		b[s.vsrcRow[i]] = v.wave.At(t)
	}
	for _, src := range s.circuit.isources {
		ifrom, ito := s.index(src.from), s.index(src.to)
		cur := src.wave.At(t)
		if ifrom >= 0 {
			b[ifrom] -= cur
		}
		if ito >= 0 {
			b[ito] += cur
		}
	}
}

// dcSolve returns the node voltages (V) solving G·x = b(t) for w's
// system: capacitors open, inductors shorted, sources evaluated at time t
// (s). The voltages are w's storage, valid until its next DC solve. what
// names the analysis in a singular-matrix error.
func (w *workspace) dcSolve(t float64, what string) ([]float64, error) {
	s := &w.sys
	if err := s.g.FactorInto(&w.dcLU); err != nil {
		return nil, fmt.Errorf("spice: %s: %w", what, err)
	}
	w.b = scratch.Resize(w.b, s.size)
	s.rhs(w.b, t)
	w.dcLU.SolveInPlace(w.b)
	w.volts = s.nodeVoltages(w.volts, w.b)
	return w.volts, nil
}

// nodeVoltages expands an unknown vector into per-node voltages including
// ground at index 0, in dst's storage.
func (s *mnaSystem) nodeVoltages(dst, x []float64) []float64 {
	v := scratch.Resize(dst, s.circuit.numNodes)
	v[0] = 0
	for n := 1; n < len(v); n++ {
		v[n] = x[n-1]
	}
	return v
}
