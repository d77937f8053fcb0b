package spice_test

import (
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

// TestTransientMatchesDenseReference checks that the sparse MNA path
// reproduces the dense one bit for bit on the circuits the router measures:
// MST, LDRG (MST plus extra edges) and Iterated 1-Steiner topologies, RC
// and RLC, both integrators, and the DC solves.
func TestTransientMatchesDenseReference(t *testing.T) {
	sizes := []int{2, 3, 5, 10, 20, 30, 40}
	if testing.Short() {
		sizes = []int{2, 5, 12}
	}
	added := 0
	for _, pins := range sizes {
		net, err := netlist.NewGenerator(int64(pins)).Generate(pins)
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
		added += len(ldrg.AddedEdges)
		st, err := steiner.Tree(net.Pins, steiner.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, topo := range []struct {
			name string
			t    *graph.Topology
		}{{"mst", tree}, {"ldrg", ldrg.Topology}, {"steiner", st}} {
			for _, inductance := range []bool{false, true} {
				cm, err := rc.BuildCircuit(topo.t, rc.Default(), rc.BuildOpts{IncludeInductance: inductance})
				if err != nil {
					t.Fatal(err)
				}
				checkAgainstDenseReference(t, fmt.Sprintf("%d pins %s L=%v", pins, topo.name, inductance), cm)
			}
		}
	}
	if added == 0 {
		t.Error("LDRG added no edges: no non-tree circuit was checked")
	}
}

func checkAgainstDenseReference(t *testing.T, name string, cm *rc.CircuitMap) {
	t.Helper()
	c, sinks := cm.Circuit, cm.SinkNodes

	final, err := spice.FinalValue(c, math.MaxFloat64)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want, _ := spice.ReferenceFinalValue(c, math.MaxFloat64)
	sameBits(t, name+" FinalValue", final, want)
	op, err := spice.OperatingPoint(c)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want, _ = spice.ReferenceOperatingPoint(c)
	sameBits(t, name+" OperatingPoint", op, want)

	for _, method := range []spice.Method{spice.Trapezoidal, spice.BackwardEuler} {
		opts := spice.DefaultMeasureOpts()
		opts.Method = method
		got, err := spice.MeasureDelays(c, sinks, opts)
		want, wantErr := spice.ReferenceMeasureDelays(c, sinks, opts)
		if err != nil || wantErr != nil {
			t.Fatalf("%s: MeasureDelays %v: error %v, dense %v", name, method, err, wantErr)
		}
		sameBits(t, fmt.Sprintf("%s MeasureDelays %v", name, method), got, want)
	}

	// Direct transients around the measured delays: an early-exit threshold
	// run and a recorded run to a fixed stop.
	delays, err := spice.MeasureDelays(c, sinks, spice.DefaultMeasureOpts())
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	stop := 3 * spice.MaxDelay(delays)
	levels := make([]float64, len(sinks))
	for i, s := range sinks {
		levels[i] = 0.5 * final[s]
	}
	for _, method := range []spice.Method{spice.Trapezoidal, spice.BackwardEuler} {
		opts := spice.TranOpts{Step: stop / 2000, Stop: stop, Method: method}
		got, err := spice.TransientThresholds(c, opts, sinks, levels)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, _ := spice.ReferenceTransientThresholds(c, opts, sinks, levels)
		sameResult(t, fmt.Sprintf("%s thresholds %v", name, method), got, want)

		opts = spice.TranOpts{Step: stop / 300, Stop: stop, Method: method, Record: true}
		got, err = spice.Transient(c, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, _ = spice.ReferenceTransient(c, opts)
		sameResult(t, fmt.Sprintf("%s recorded %v", name, method), got, want)
		for n := range got.V {
			sameBits(t, fmt.Sprintf("%s recorded %v node %d", name, method, n), got.V[n], want.V[n])
		}
	}
}

func sameResult(t *testing.T, what string, got, want *spice.TranResult) {
	t.Helper()
	if got.Steps != want.Steps {
		t.Fatalf("%s: %d steps, dense %d", what, got.Steps, want.Steps)
	}
	sameBits(t, what+" Final", got.Final, want.Final)
	sameBits(t, what+" Crossings", got.Crossings, want.Crossings)
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, dense %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%#x), dense %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}
