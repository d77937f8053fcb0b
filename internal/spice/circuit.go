// Package spice is a from-scratch linear circuit simulator standing in for
// Berkeley SPICE2, which the paper uses to evaluate every routing topology.
//
// The paper's circuits are linear: distributed RC(L) interconnect driven by
// a step source behind a driver resistance, with capacitive sink loads
// (Section 2, Table 1). For this class, modified nodal analysis with an
// implicit integrator reproduces SPICE's transient behaviour exactly, so the
// substitution preserves the experiments — see DESIGN.md §2.
//
// The simulator supports resistors, capacitors, inductors, independent
// voltage sources and current sources driven by DC or step waveforms, and
// transient analysis via Backward Euler or the trapezoidal rule with a
// fixed timestep and one-time LU factorization. MeasureDelays, the entry
// point every experiment uses, takes each node's final value from a DC
// solve and its 50% delay from the transient. AC analysis (ACResponse,
// Bandwidth3dB) and WriteDeck, which exports a circuit for an external
// SPICE, complete the surface.
//
// Concurrency: a Circuit is mutable while being built (Node/Add*/Reset) and
// must be confined to one goroutine until construction finishes; every
// analysis entry point (Transient, MeasureDelays, ACResponse, Bandwidth3dB)
// then treats it as read-only. Each analysis takes a workspace — the MNA
// system, the factorizations and the step buffers — from shared slots that
// hand it to one analysis at a time, and returns it on every return path,
// so a warm measurement allocates only the delays it returns. Concurrent
// analyses of the same or distinct circuits are therefore safe, which is
// what lets core's parallel candidate sweeps hammer SpiceOracle from many
// goroutines.
package spice

import (
	"errors"
	"fmt"
)

// Ground is the reference node; its voltage is identically zero.
const Ground = 0

// Waveform is a source value (volts or amperes) over time: V0 before T0
// (s) and V1 from T0 on. The paper's circuits need no other shape.
type Waveform struct {
	V0, V1, T0 float64
}

// DC returns a constant waveform, the flat case of Step.
func DC(value float64) Waveform { return Waveform{V0: value, V1: value} }

// Step returns a waveform that is v0 for t < t0 and v1 afterwards — the
// paper's rising input edge. t0 is in seconds.
func Step(v0, v1, t0 float64) Waveform { return Waveform{V0: v0, V1: v1, T0: t0} }

// At returns the waveform's value at time t (s).
func (w Waveform) At(t float64) float64 {
	if t < w.T0 {
		return w.V0
	}
	return w.V1
}

type resistor struct {
	a, b int
	ohms float64
}

type capacitor struct {
	a, b   int
	farads float64
}

type inductor struct {
	a, b    int
	henries float64
}

type vsource struct {
	pos, neg int
	wave     Waveform
}

type isource struct {
	from, to int // current flows from 'from' through the source into 'to'
	wave     Waveform
}

// Circuit is a netlist under construction. Node 0 is ground; allocate
// further nodes with Node.
type Circuit struct {
	numNodes   int
	resistors  []resistor
	capacitors []capacitor
	inductors  []inductor
	vsources   []vsource
	isources   []isource
}

// NewCircuit returns an empty circuit containing only the ground node.
func NewCircuit() *Circuit {
	return &Circuit{numNodes: 1}
}

// Node allocates and returns a fresh node index.
func (c *Circuit) Node() int {
	c.numNodes++
	return c.numNodes - 1
}

// Nodes allocates n fresh nodes and returns their indices.
func (c *Circuit) Nodes(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = c.Node()
	}
	return out
}

// Reset empties c back to the ground node alone, keeping its storage for
// the next circuit built in it.
func (c *Circuit) Reset() {
	c.numNodes = 1
	c.resistors, c.capacitors, c.inductors = c.resistors[:0], c.capacitors[:0], c.inductors[:0]
	c.vsources, c.isources = c.vsources[:0], c.isources[:0]
}

// NumNodes returns the node count including ground.
func (c *Circuit) NumNodes() int { return c.numNodes }

// Element construction errors.
var (
	ErrBadNode      = errors.New("spice: node index out of range")
	ErrNonPositive  = errors.New("spice: element value must be positive")
	ErrSameNode     = errors.New("spice: element endpoints must differ")
	ErrEmptyCircuit = errors.New("spice: circuit has no non-ground nodes")
)

func (c *Circuit) checkNodes(nodes ...int) error {
	for _, n := range nodes {
		if n < 0 || n >= c.numNodes {
			return fmt.Errorf("%w: %d (circuit has %d nodes)", ErrBadNode, n, c.numNodes)
		}
	}
	return nil
}

// AddResistor connects a resistance of the given ohms between nodes a and b.
func (c *Circuit) AddResistor(a, b int, ohms float64) error {
	if err := c.checkNodes(a, b); err != nil {
		return err
	}
	if a == b {
		return ErrSameNode
	}
	if ohms <= 0 {
		return fmt.Errorf("%w: resistor %g ohms", ErrNonPositive, ohms)
	}
	c.resistors = append(c.resistors, resistor{a, b, ohms})
	return nil
}

// AddCapacitor connects a capacitance of the given farads between a and b.
func (c *Circuit) AddCapacitor(a, b int, farads float64) error {
	if err := c.checkNodes(a, b); err != nil {
		return err
	}
	if a == b {
		return ErrSameNode
	}
	if farads <= 0 {
		return fmt.Errorf("%w: capacitor %g farads", ErrNonPositive, farads)
	}
	c.capacitors = append(c.capacitors, capacitor{a, b, farads})
	return nil
}

// AddInductor connects an inductance of the given henries between a and b.
func (c *Circuit) AddInductor(a, b int, henries float64) error {
	if err := c.checkNodes(a, b); err != nil {
		return err
	}
	if a == b {
		return ErrSameNode
	}
	if henries <= 0 {
		return fmt.Errorf("%w: inductor %g henries", ErrNonPositive, henries)
	}
	c.inductors = append(c.inductors, inductor{a, b, henries})
	return nil
}

// AddVSource connects an independent voltage source; the voltage at pos
// minus the voltage at neg tracks the waveform.
func (c *Circuit) AddVSource(pos, neg int, wave Waveform) error {
	if err := c.checkNodes(pos, neg); err != nil {
		return err
	}
	if pos == neg {
		return ErrSameNode
	}
	c.vsources = append(c.vsources, vsource{pos, neg, wave})
	return nil
}

// AddISource connects an independent current source driving the waveform's
// current out of node from and into node to.
func (c *Circuit) AddISource(from, to int, wave Waveform) error {
	if err := c.checkNodes(from, to); err != nil {
		return err
	}
	if from == to {
		return ErrSameNode
	}
	c.isources = append(c.isources, isource{from, to, wave})
	return nil
}

// Counts returns the number of each element kind, for diagnostics.
func (c *Circuit) Counts() (r, cap, l, v, i int) {
	return len(c.resistors), len(c.capacitors), len(c.inductors), len(c.vsources), len(c.isources)
}

// ResistorValues returns every resistor's value in ohms, in insertion
// order. Exposed for netlist verification in tests and tools.
func ResistorValues(c *Circuit) []float64 {
	out := make([]float64, len(c.resistors))
	for i, r := range c.resistors {
		out[i] = r.ohms
	}
	return out
}

// CapacitorValues returns every capacitor's value in farads, in insertion
// order.
func CapacitorValues(c *Circuit) []float64 {
	out := make([]float64, len(c.capacitors))
	for i, cap := range c.capacitors {
		out[i] = cap.farads
	}
	return out
}
