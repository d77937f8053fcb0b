package spice

import (
	"fmt"
	"slices"

	"nontree/internal/linalg"
)

// mnaSystem is the assembled modified-nodal-analysis description of a
// circuit: C·dx/dt + G·x = b(t), where the unknown vector x holds the
// non-ground node voltages followed by one branch current per voltage
// source and per inductor. G and C are sparse in the circuit's natural node
// order; a system is never modified after assembly, so one serves any
// number of DC solves and transient runs.
type mnaSystem struct {
	circuit *Circuit
	size    int // total unknowns
	nv      int // node-voltage unknowns (numNodes - 1)

	g *linalg.Sparse // conductance / incidence part
	c *linalg.Sparse // capacitance / inductance part

	// vsrcRow[i] is the row (and branch-current column) of voltage source i;
	// indRow[i] likewise for inductor i.
	vsrcRow []int
	indRow  []int
}

// index maps a circuit node to its unknown index, or -1 for ground.
func (s *mnaSystem) index(node int) int { return node - 1 }

// assemble builds the MNA matrices for the circuit.
func assemble(c *Circuit) (*mnaSystem, error) {
	if c.numNodes <= 1 {
		return nil, ErrEmptyCircuit
	}
	nv := c.numNodes - 1
	size := nv + len(c.vsources) + len(c.inductors)
	s := &mnaSystem{
		circuit: c,
		size:    size,
		nv:      nv,
		vsrcRow: make([]int, len(c.vsources)),
		indRow:  make([]int, len(c.inductors)),
	}
	var g, cm []linalg.Stamp

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
	if row != size {
		return nil, fmt.Errorf("spice: internal stamping error: %d rows vs %d size", row, size)
	}
	s.g = linalg.NewSparse(size, size, g)
	s.c = linalg.NewSparse(size, size, cm)
	return s, nil
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

// algebraicRows reports, per MNA row, whether the row carries no dynamic
// (C-matrix) entries — i.e. it is a pure algebraic constraint such as a
// voltage-source branch row or the KCL of a capacitor-free node.
func (s *mnaSystem) algebraicRows() []bool {
	out := make([]bool, s.size)
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

// dcSolve returns the node voltages (V) solving G·x = b(t): capacitors
// open, inductors shorted, sources evaluated at time t (s). what names the
// analysis in a singular-matrix error.
func (s *mnaSystem) dcSolve(t float64, what string) ([]float64, error) {
	lu, err := s.g.Factor()
	if err != nil {
		return nil, fmt.Errorf("spice: %s: %w", what, err)
	}
	b := make([]float64, s.size)
	s.rhs(b, t)
	lu.SolveInPlace(b)
	return s.nodeVoltages(b), nil
}

// nodeVoltages expands an unknown vector into per-node voltages including
// ground at index 0.
func (s *mnaSystem) nodeVoltages(x []float64) []float64 {
	v := make([]float64, s.circuit.numNodes)
	for n := 1; n < s.circuit.numNodes; n++ {
		v[n] = x[n-1]
	}
	return v
}
