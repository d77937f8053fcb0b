package spice_test

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"nontree/internal/core"
	"nontree/internal/graph"
	"nontree/internal/mst"
	"nontree/internal/netlist"
	"nontree/internal/rc"
	"nontree/internal/spice"
	"nontree/internal/steiner"
)

// reuseStep is one analysis of the reuse sequence: a measurement, an
// early-exit threshold transient or a recorded transient of one routed
// net's circuit, or a measurement of a hand-built circuit, which may be
// one that must fail.
type reuseStep struct {
	name   string
	topo   *graph.Topology
	rlc    bool
	method spice.Method
	kind   string // "measure", "thresholds", "recorded" or "fail"
	hand   func() *spice.Circuit
}

// circuit returns s's circuit and the nodes it watches: a hand-built
// circuit watches every node, and a routed net is built into cm and
// watches its sinks.
func (s reuseStep) circuit(t *testing.T, cm *rc.CircuitMap) (*spice.Circuit, []int) {
	t.Helper()
	if s.hand != nil {
		c := s.hand()
		var all []int
		for n := 1; n < c.NumNodes(); n++ {
			all = append(all, n)
		}
		return c, all
	}
	if err := cm.Build(s.topo, rc.Default(), rc.BuildOpts{IncludeInductance: s.rlc}); err != nil {
		t.Fatal(err)
	}
	return cm.Circuit, cm.SinkNodes
}

// stepInputs are the run lengths and threshold levels of a net's direct
// transients, taken from its dense reference measurement.
type stepInputs struct {
	stop   float64
	levels []float64
}

// flatten lists every value of a transient result: final voltages,
// crossings, sample times, the step count and each node's samples.
func flatten(res *spice.TranResult) [][]float64 {
	return append([][]float64{res.Final, res.Crossings, res.Times, {float64(res.Steps)}}, res.V...)
}

// run performs s on circuit c with sinks; measure and fail use the
// measurement entry point, the others the transient ones, or their dense
// references when ref is set.
func (s reuseStep) run(c *spice.Circuit, sinks []int, in stepInputs, ref bool) ([][]float64, error) {
	switch s.kind {
	case "measure", "fail":
		opts := spice.DefaultMeasureOpts()
		opts.Method = s.method
		measure := spice.MeasureDelays
		if ref {
			measure = spice.ReferenceMeasureDelays
		}
		d, err := measure(c, sinks, opts)
		return [][]float64{d}, err
	case "thresholds":
		opts := spice.TranOpts{Step: in.stop / 2000, Stop: in.stop, Method: s.method}
		thresholds := spice.TransientThresholds
		if ref {
			thresholds = spice.ReferenceTransientThresholds
		}
		res, err := thresholds(c, opts, sinks, in.levels)
		if err != nil {
			return nil, err
		}
		return flatten(res), nil
	}
	opts := spice.TranOpts{Step: in.stop / 300, Stop: in.stop, Method: s.method, Record: true}
	transient := spice.Transient
	if ref {
		transient = spice.ReferenceTransient
	}
	res, err := transient(c, opts)
	if err != nil {
		return nil, err
	}
	return flatten(res), nil
}

// floatingCircuit has a node joined to the driven one by a capacitor
// alone, so its DC solve is singular.
func floatingCircuit() *spice.Circuit {
	c := spice.NewCircuit()
	a, b := c.Node(), c.Node()
	_ = c.AddVSource(a, spice.Ground, spice.Step(0, 1, 0))
	_ = c.AddResistor(a, spice.Ground, 1e3)
	_ = c.AddCapacitor(a, b, 1e-12)
	return c
}

// drivenCircuit is an RC stage whose source node, driven by the step
// itself, crosses its threshold in the first step; its crossing then
// interpolates from the zero initial state.
func drivenCircuit() *spice.Circuit {
	c := spice.NewCircuit()
	a, b := c.Node(), c.Node()
	_ = c.AddVSource(a, spice.Ground, spice.Step(0, 1, 0))
	_ = c.AddResistor(a, b, 1e3)
	_ = c.AddCapacitor(b, spice.Ground, 1e-12)
	return c
}

// lateStepCircuit is an RC stage whose source steps long after every
// horizon the measurement tries, so its node never crosses.
func lateStepCircuit() *spice.Circuit {
	c := spice.NewCircuit()
	a, b := c.Node(), c.Node()
	_ = c.AddVSource(a, spice.Ground, spice.Step(0, 1, 1))
	_ = c.AddResistor(a, b, 1e3)
	_ = c.AddCapacitor(b, spice.Ground, 1e-12)
	return c
}

// reuseSequence returns the analyses of nets that grow and then shrink
// (5, 30, 5 and 12 pins): MST, LDRG and Iterated 1-Steiner topologies, RC
// and RLC, under both integrators. A failing measurement follows the
// first net size; after the second come a measurement in which a node
// crosses in the first step, which reads the zero initial state, and one
// that fails. Short mode, which the race detector slows about
// fifteenfold, takes 4, 8, 4 and 6 pins and one topology per net, in
// turn.
func reuseSequence(t *testing.T) []reuseStep {
	t.Helper()
	sizes := []int{5, 30, 5, 12}
	if testing.Short() {
		sizes = []int{4, 8, 4, 6}
	}
	type named struct {
		name string
		t    *graph.Topology
	}
	var steps []reuseStep
	for i, pins := range sizes {
		net, err := netlist.NewGenerator(int64(100 + pins)).Generate(pins)
		if err != nil {
			t.Fatal(err)
		}
		tree, err := mst.Prim(net.Pins)
		if err != nil {
			t.Fatal(err)
		}
		ldrg, err := core.LDRG(tree, core.Options{Oracle: &core.ElmoreOracle{Params: rc.Default()}, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		st, err := steiner.Tree(net.Pins, steiner.Options{})
		if err != nil {
			t.Fatal(err)
		}
		topos := []named{{"mst", tree}, {"ldrg", ldrg.Topology}, {"steiner", st}}
		if testing.Short() {
			topos = topos[i%3 : i%3+1]
		}
		for _, topo := range topos {
			for _, rlc := range []bool{false, true} {
				for _, method := range []spice.Method{spice.Trapezoidal, spice.BackwardEuler} {
					for _, kind := range []string{"measure", "thresholds", "recorded"} {
						steps = append(steps, reuseStep{
							name: fmt.Sprintf("%d pins %s L=%v %v %s", pins, topo.name, rlc, method, kind),
							topo: topo.t, rlc: rlc, method: method, kind: kind})
					}
				}
			}
		}
		switch i {
		case 0:
			steps = append(steps, reuseStep{name: "floating node", kind: "fail", hand: floatingCircuit})
		case 1:
			steps = append(steps,
				reuseStep{name: "driven node", kind: "measure", hand: drivenCircuit},
				reuseStep{name: "no crossing", kind: "fail", hand: lateStepCircuit})
		}
	}
	return steps
}

// TestReusedWorkspaceMatchesFreshAndReference runs one sequence of
// analyses three times: on fresh storage for every analysis, on one
// workspace and one circuit passed from analysis to analysis, as a warm
// measurement loop does, and through the dense references. Every
// crossing, final value and recorded sample must agree bit for bit, and
// every analysis, the failing ones included, must return the workspace it
// took.
func TestReusedWorkspaceMatchesFreshAndReference(t *testing.T) {
	steps := reuseSequence(t)

	// The dense reference, which also fixes each net's transient inputs.
	type netKey struct {
		topo *graph.Topology
		rlc  bool
	}
	inputs := map[netKey]stepInputs{}
	want := make([][][]float64, len(steps))
	for i, s := range steps {
		c, sinks := s.circuit(t, new(rc.CircuitMap))
		k := netKey{s.topo, s.rlc}
		if _, ok := inputs[k]; !ok && s.hand == nil {
			final, err := spice.ReferenceFinalValue(c, math.MaxFloat64)
			if err != nil {
				t.Fatal(err)
			}
			d, err := spice.ReferenceMeasureDelays(c, sinks, spice.DefaultMeasureOpts())
			if err != nil {
				t.Fatal(err)
			}
			in := stepInputs{stop: 3 * spice.MaxDelay(d)}
			for _, n := range sinks {
				in.levels = append(in.levels, 0.5*final[n])
			}
			inputs[k] = in
		}
		var err error
		if want[i], err = s.run(c, sinks, inputs[k], true); s.kind != "fail" && err != nil {
			t.Fatalf("%s: dense reference: %v", s.name, err)
		}
	}

	var fresh [][][]float64
	spice.WithWorkspaceSlots(0, func() {
		for _, s := range steps {
			c, sinks := s.circuit(t, new(rc.CircuitMap))
			got, err := s.run(c, sinks, inputs[netKey{s.topo, s.rlc}], false)
			if s.kind == "fail" {
				if err == nil {
					t.Fatalf("%s: measured %v, want an error", s.name, got)
				}
				if s.name == "no crossing" && !errors.Is(err, spice.ErrNoCrossing) {
					t.Fatalf("%s: %v, want ErrNoCrossing", s.name, err)
				}
			} else if err != nil {
				t.Fatalf("%s: %v", s.name, err)
			}
			fresh = append(fresh, got)
		}
	})

	var cm rc.CircuitMap
	var held any
	spice.WithWorkspaceSlots(1, func() {
		for i, s := range steps {
			c, sinks := s.circuit(t, &cm)
			got, err := s.run(c, sinks, inputs[netKey{s.topo, s.rlc}], false)
			if (err != nil) != (s.kind == "fail") {
				t.Fatalf("%s on reused storage: error %v", s.name, err)
			}
			if w := spice.IdleWorkspace(); w == nil || held != nil && w != held {
				t.Fatalf("%s did not return the workspace it took", s.name)
			} else {
				held = w
			}
			if len(got) != len(want[i]) || len(got) != len(fresh[i]) {
				t.Fatalf("%s: %d value lists, fresh %d, dense %d", s.name, len(got), len(fresh[i]), len(want[i]))
			}
			for j := range got {
				sameBits(t, fmt.Sprintf("%s on reused storage, value list %d, against fresh storage", s.name, j), got[j], fresh[i][j])
				sameBits(t, fmt.Sprintf("%s on reused storage, value list %d", s.name, j), got[j], want[i][j])
			}
		}
	})
}

// TestMeasureDelaysRejectsWatchOutsideCircuit checks that a watch node
// outside [1, NumNodes) is an error, not an index panic.
func TestMeasureDelaysRejectsWatchOutsideCircuit(t *testing.T) {
	c := lateStepCircuit()
	for _, node := range []int{c.NumNodes(), -1} {
		d, err := spice.MeasureDelays(c, []int{1, node}, spice.DefaultMeasureOpts())
		if !errors.Is(err, spice.ErrBadNode) {
			t.Errorf("watch node %d: delays %v, error %v; want ErrBadNode", node, d, err)
		}
	}
}
