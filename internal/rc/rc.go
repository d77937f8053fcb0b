// Package rc models routing topologies as RC(L) circuits under the paper's
// 0.8µ CMOS interconnect technology (Table 1): per-unit-length wire
// resistance, capacitance and inductance, a lumped driver resistance at the
// source, and capacitive pin loads.
//
// Two representations are produced:
//
//   - A distributed circuit for the spice package (each wire split into π
//     segments), used wherever the paper runs SPICE.
//   - A lumped single-π-per-edge network (node capacitances and edge
//     resistances), which is exactly what the Elmore delay model consumes —
//     Elmore delay depends only on total edge R and C, not on segmentation.
package rc

import (
	"errors"
	"fmt"
	"math"

	"nontree/internal/graph"
	"nontree/internal/scratch"
	"nontree/internal/spice"
)

// Params holds the interconnect technology parameters. Units: ohms, farads,
// henries, volts; lengths in µm, so per-unit values are per-µm. The defaults
// mirror the paper's Table 1.
type Params struct {
	// DriverResistance is the source driver's output resistance (Ω).
	DriverResistance float64
	// WireResistance is resistance per unit length (Ω/µm) of unit-width wire.
	WireResistance float64
	// WireCapacitance is capacitance per unit length (F/µm) of unit-width wire.
	WireCapacitance float64
	// WireInductance is inductance per unit length (H/µm).
	WireInductance float64
	// SinkCapacitance is the loading capacitance at each pin (F).
	SinkCapacitance float64
	// Vdd is the supply step amplitude (V).
	Vdd float64
}

// SI scale factors, so Table 1's prefixed values appear verbatim in
// Default. Both are untyped constants: 0.352*Femto is evaluated in
// arbitrary precision and rounds once, bit-identical to writing
// 0.352e-15.
const (
	// Femto is the SI femto prefix, 10⁻¹⁵.
	Femto = 1e-15
	// Atto is the SI atto prefix, 10⁻¹⁸.
	Atto = 1e-18
)

// Default returns the paper's Table 1 parameter values: 100Ω driver,
// 0.03Ω/µm, 0.352fF/µm, 492fH/µm, 15.3fF sink load, driven by a 1V step
// (delay thresholds are relative, so the amplitude is immaterial).
func Default() Params {
	return Params{
		DriverResistance: 100,
		WireResistance:   0.03,
		WireCapacitance:  0.352 * Femto,
		WireInductance:   492 * Atto,
		SinkCapacitance:  15.3 * Femto,
		Vdd:              1.0,
	}
}

// Validate checks the parameters are physical.
func (p Params) Validate() error {
	switch {
	case p.DriverResistance <= 0:
		return errors.New("rc: driver resistance must be positive")
	case p.WireResistance <= 0:
		return errors.New("rc: wire resistance must be positive")
	case p.WireCapacitance <= 0:
		return errors.New("rc: wire capacitance must be positive")
	case p.WireInductance < 0:
		return errors.New("rc: wire inductance must be non-negative")
	case p.SinkCapacitance < 0:
		return errors.New("rc: sink capacitance must be non-negative")
	case p.Vdd <= 0:
		return errors.New("rc: Vdd must be positive")
	}
	return nil
}

// WidthFunc maps an edge to its dimensionless wire width multiplier
// (1 = unit width).
// Width w scales resistance by 1/w and capacitance by w, the standard
// first-order wire-sizing model used by the paper's WSORG formulation.
type WidthFunc func(graph.Edge) float64

// UnitWidth is the WidthFunc for uniform unit-width wires.
func UnitWidth(graph.Edge) float64 { return 1 }

// BuildOpts configures distributed circuit construction.
type BuildOpts struct {
	// MaxSegmentLength is the longest wire run (µm) modeled by a single π
	// segment; longer edges are split into ⌈L/MaxSegmentLength⌉ segments.
	// Zero selects the default of 500 µm, which tests show is converged to
	// well under 1% of the fully distributed delay for this technology.
	MaxSegmentLength float64
	// IncludeInductance adds the per-segment series inductance of Table 1,
	// making each segment an RLC π section.
	IncludeInductance bool
	// Width gives per-edge wire widths (nil = unit width everywhere).
	Width WidthFunc
}

// DefaultMaxSegment is the default π-segment length (µm).
const DefaultMaxSegment = 500.0

// CircuitMap ties a built circuit back to its topology: NodeOf[n] is the
// circuit node carrying topology node n's voltage.
type CircuitMap struct {
	Circuit *spice.Circuit
	// NodeOf maps topology node index to circuit node index; -1 for
	// isolated (degree-0) Steiner nodes, which carry no circuitry.
	NodeOf []int
	// SinkNodes lists the circuit nodes of the net's sinks (topology nodes
	// 1..NumPins-1) in order; these are the delay measurement points.
	SinkNodes []int

	edges []graph.Edge // the topology's edges, kept for Build to reuse
}

// Errors from circuit construction.
var (
	ErrDisconnected = errors.New("rc: topology must be connected to build a circuit")
	ErrBadWidth     = errors.New("rc: wire width must be positive")
)

// BuildCircuit converts a connected routing topology into a distributed
// RC(L) circuit exactly as the paper describes its SPICE decks: "The root of
// the tree is driven by a resistor connected to the source pin. In addition,
// sink loading capacitances are used at all the pins."
func BuildCircuit(t *graph.Topology, p Params, opts BuildOpts) (*CircuitMap, error) {
	cm := new(CircuitMap)
	if err := cm.Build(t, p, opts); err != nil {
		return nil, err
	}
	return cm, nil
}

// Build is BuildCircuit into cm: it resets cm's circuit, or gives cm a new
// one when it has none, and reuses the storage of the circuit, the node
// maps and the edge list. On error cm holds no usable circuit.
func (cm *CircuitMap) Build(t *graph.Topology, p Params, opts BuildOpts) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if !t.Connected() {
		return ErrDisconnected
	}
	maxSeg := opts.MaxSegmentLength
	if maxSeg <= 0 {
		maxSeg = DefaultMaxSegment
	}
	width := opts.Width
	if width == nil {
		width = UnitWidth
	}

	if cm.Circuit == nil {
		cm.Circuit = spice.NewCircuit()
	}
	c := cm.Circuit
	c.Reset()
	cm.NodeOf = scratch.Resize(cm.NodeOf, t.NumNodes())
	nodeOf := cm.NodeOf
	for n := range nodeOf {
		if t.IsSteiner(n) && t.Degree(n) == 0 {
			// Isolated Steiner candidates carry no wire; giving them a
			// circuit node would float it and make the MNA matrix singular.
			nodeOf[n] = -1
			continue
		}
		nodeOf[n] = c.Node()
	}

	// Driver: step source behind the driver resistance into the source pin.
	drv := c.Node()
	if err := c.AddVSource(drv, spice.Ground, spice.Step(0, p.Vdd, 0)); err != nil {
		return err
	}
	if err := c.AddResistor(drv, nodeOf[0], p.DriverResistance); err != nil {
		return err
	}

	// Pin loading capacitances at every pin.
	for n := 0; n < t.NumPins(); n++ {
		if p.SinkCapacitance > 0 {
			if err := c.AddCapacitor(nodeOf[n], spice.Ground, p.SinkCapacitance); err != nil {
				return err
			}
		}
	}

	// Distributed wires.
	cm.edges = t.AppendEdges(cm.edges[:0])
	for _, e := range cm.edges {
		w := width(e)
		if w <= 0 {
			return fmt.Errorf("%w: edge %v width %g", ErrBadWidth, e, w)
		}
		length := t.EdgeLength(e)
		nseg := int(math.Ceil(length / maxSeg))
		if nseg < 1 {
			nseg = 1
		}
		segLen := length / float64(nseg)
		segR := p.WireResistance * segLen / w
		segC := p.WireCapacitance * segLen * w
		segL := p.WireInductance * segLen

		prev := nodeOf[e.U]
		for s := 0; s < nseg; s++ {
			var next int
			if s == nseg-1 {
				next = nodeOf[e.V]
			} else {
				next = c.Node()
			}
			// π section: half the segment capacitance at each end, series
			// resistance (and optionally inductance) between.
			if err := c.AddCapacitor(prev, spice.Ground, segC/2); err != nil {
				return err
			}
			if err := c.AddCapacitor(next, spice.Ground, segC/2); err != nil {
				return err
			}
			if opts.IncludeInductance && segL > 0 {
				mid := c.Node()
				if err := c.AddResistor(prev, mid, segR); err != nil {
					return err
				}
				if err := c.AddInductor(mid, next, segL); err != nil {
					return err
				}
			} else {
				if err := c.AddResistor(prev, next, segR); err != nil {
					return err
				}
			}
			prev = next
		}
	}

	cm.SinkNodes = cm.SinkNodes[:0]
	for n := 1; n < t.NumPins(); n++ {
		cm.SinkNodes = append(cm.SinkNodes, nodeOf[n])
	}
	return nil
}

// Lumped is the single-π-per-edge reduction of a topology: per-node shunt
// capacitance (pin loads plus half of each incident edge's wire
// capacitance) and per-edge resistance. This is the exact network on which
// Elmore delay is defined; segmentation does not change Elmore values.
type Lumped struct {
	// NodeCap[n] is the total shunt capacitance at topology node n (F).
	NodeCap []float64
	// EdgeRes maps each canonical edge to its series resistance (Ω).
	EdgeRes map[graph.Edge]float64
	// DriverResistance is the source driver resistance (Ω).
	DriverResistance float64
}

// Lump computes the lumped network of a topology under the technology
// parameters and optional per-edge widths.
func Lump(t *graph.Topology, p Params, width WidthFunc) (*Lumped, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if width == nil {
		width = UnitWidth
	}
	l := &Lumped{
		NodeCap:          make([]float64, t.NumNodes()),
		EdgeRes:          make(map[graph.Edge]float64, t.NumEdges()),
		DriverResistance: p.DriverResistance,
	}
	for n := 0; n < t.NumPins(); n++ {
		l.NodeCap[n] = p.SinkCapacitance
	}
	for _, e := range t.Edges() {
		w := width(e)
		if w <= 0 {
			return nil, fmt.Errorf("%w: edge %v width %g", ErrBadWidth, e, w)
		}
		length := t.EdgeLength(e)
		l.EdgeRes[e] = p.WireResistance * length / w
		halfC := p.WireCapacitance * length * w / 2
		l.NodeCap[e.U] += halfC
		l.NodeCap[e.V] += halfC
	}
	return l, nil
}

// TotalCap returns the network's total capacitance (F) — the C_{n0} of
// the paper's Eq. 1 when the topology is a tree.
func (l *Lumped) TotalCap() float64 {
	var sum float64
	for _, c := range l.NodeCap {
		sum += c
	}
	return sum
}

// SwitchingEnergy returns the dynamic energy (J) dissipated per output
// transition, E = ½·C_total·Vdd² — the power price of a routing. Extra
// non-tree wires and wider wires both raise it; delay-driven routing is a
// three-way delay/wire/energy tradeoff, and this makes the third axis
// measurable.
func SwitchingEnergy(t *graph.Topology, p Params, width WidthFunc) (float64, error) {
	l, err := Lump(t, p, width)
	if err != nil {
		return 0, err
	}
	return 0.5 * l.TotalCap() * p.Vdd * p.Vdd, nil
}
