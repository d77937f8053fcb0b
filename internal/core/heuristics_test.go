package core

import (
	"math"
	"testing"

	"nontree/internal/graph"
	"nontree/internal/netlist"
	"nontree/internal/rc"
	"nontree/internal/steiner"
)

func randomNet(t *testing.T, seed int64, pins int) *netlist.Net {
	t.Helper()
	net, err := netlist.NewGenerator(seed).Generate(pins)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestH1ImprovesOrLeavesUnchanged(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		topo := randomMST(t, seed, 15)
		res, err := H1(topo, Options{Oracle: elmoreOracle()})
		if err != nil {
			t.Fatal(err)
		}
		if res.FinalObjective > res.InitialObjective {
			t.Errorf("seed %d: H1 worsened the objective", seed)
		}
		// When H1 adds nothing, the topology must be unchanged.
		if len(res.AddedEdges) == 0 && res.Topology.NumEdges() != topo.NumEdges() {
			t.Errorf("seed %d: edge count changed without additions", seed)
		}
	}
}

func TestH1AddsEdgesFromSourceOnly(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		topo := randomMST(t, seed, 12)
		res, err := H1(topo, Options{Oracle: elmoreOracle()})
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range res.AddedEdges {
			if e.U != 0 && e.V != 0 {
				t.Errorf("seed %d: H1 added non-source edge %v", seed, e)
			}
		}
	}
}

func TestH1IterationBudget(t *testing.T) {
	topo := randomMST(t, 3, 20)
	res1, err := H1(topo, Options{Oracle: elmoreOracle(), MaxAddedEdges: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res1.AddedEdges) > 1 {
		t.Errorf("budget 1 exceeded: %d edges", len(res1.AddedEdges))
	}
	resAll, err := H1(topo, Options{Oracle: elmoreOracle()})
	if err != nil {
		t.Fatal(err)
	}
	if resAll.FinalObjective > res1.FinalObjective+1e-15 {
		t.Error("unbounded H1 must be at least as good as budget-1")
	}
}

func TestH2AddsUnconditionally(t *testing.T) {
	// H2 adds its edge even when it worsens delay (paper Table 5: 5-pin
	// all-cases delay ratio 1.14 > 1). Find a seed where it regresses to
	// prove the unconditional behaviour; every run must still add an edge
	// whenever one is addable.
	sawRegression := false
	for seed := int64(0); seed < 30; seed++ {
		topo := randomMST(t, seed, 5)
		res, err := H2(topo, rc.Default(), Options{Oracle: elmoreOracle()})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.AddedEdges) > 0 && res.FinalObjective > res.InitialObjective {
			sawRegression = true
		}
	}
	if !sawRegression {
		t.Log("no H2 regression observed on 30 small nets (unusual but not wrong)")
	}
}

func TestH2TargetsWorstElmoreSink(t *testing.T) {
	topo := randomMST(t, 5, 12)
	params := rc.Default()
	delays, err := treeElmoreDelays(topo, params)
	if err != nil {
		t.Fatal(err)
	}
	worst, worstD := -1, -1.0
	for n := 1; n < topo.NumPins(); n++ {
		if delays[n] > worstD {
			worstD, worst = delays[n], n
		}
	}
	res, err := H2(topo, params, Options{Oracle: elmoreOracle()})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.AddedEdges) == 1 {
		e := res.AddedEdges[0]
		if e != (graph.Edge{U: 0, V: worst}).Canon() {
			t.Errorf("H2 added %v, want 0-%d", e, worst)
		}
	}
}

func TestH3SelectionFormula(t *testing.T) {
	topo := randomMST(t, 8, 10)
	params := rc.Default()
	delays, err := treeElmoreDelays(topo, params)
	if err != nil {
		t.Fatal(err)
	}
	// Compute the expected argmax of (pathlength × Elmore) / newEdgeLen.
	best, bestScore := -1, -1.0
	for sink := 1; sink < topo.NumPins(); sink++ {
		e := graph.Edge{U: 0, V: sink}
		if topo.HasEdge(e) || topo.EdgeLength(e) == 0 {
			continue
		}
		pl, err := topo.TreePathLength(sink)
		if err != nil {
			t.Fatal(err)
		}
		score := pl * delays[sink] / topo.EdgeLength(e)
		if score > bestScore {
			bestScore, best = score, sink
		}
	}
	res, err := H3(topo, params, Options{Oracle: elmoreOracle()})
	if err != nil {
		t.Fatal(err)
	}
	if best >= 1 {
		if len(res.AddedEdges) != 1 || res.AddedEdges[0] != (graph.Edge{U: 0, V: best}).Canon() {
			t.Errorf("H3 added %v, want 0-%d", res.AddedEdges, best)
		}
	}
}

func TestH2H3RequireTreeSeed(t *testing.T) {
	topo := randomMST(t, 2, 8)
	// Make it a graph.
	for _, e := range topo.AbsentEdges() {
		if err := topo.AddEdge(e); err == nil {
			break
		}
	}
	if _, err := H2(topo, rc.Default(), Options{Oracle: elmoreOracle()}); err == nil {
		t.Error("H2 must reject non-tree seed")
	}
	if _, err := H3(topo, rc.Default(), Options{Oracle: elmoreOracle()}); err == nil {
		t.Error("H3 must reject non-tree seed")
	}
}

func TestSLDRGBeatsOrMatchesSteinerSeed(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		net := randomNet(t, seed, 12)
		res, err := SLDRG(net.Pins, steiner.Options{}, Options{Oracle: elmoreOracle()})
		if err != nil {
			t.Fatal(err)
		}
		if res.FinalObjective > res.InitialObjective {
			t.Errorf("seed %d: SLDRG worsened delay", seed)
		}
		if !res.Seed.IsTree() {
			t.Error("SLDRG seed must be a tree")
		}
		if res.Topology.NumEdges() != res.Seed.NumEdges()+len(res.AddedEdges) {
			t.Error("edge bookkeeping broken")
		}
	}
}

func TestSLDRGCanAddSteinerToSteinerEdges(t *testing.T) {
	// Over many nets, SLDRG's candidate space includes Steiner-incident
	// edges; confirm at least the space is explored without error, and
	// verify the final graph is connected and valid.
	for seed := int64(0); seed < 10; seed++ {
		net := randomNet(t, seed, 15)
		res, err := SLDRG(net.Pins, steiner.Options{}, Options{Oracle: elmoreOracle()})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Topology.Connected() {
			t.Fatal("SLDRG output disconnected")
		}
	}
}

func TestSpiceOracleMatchesDirectMeasure(t *testing.T) {
	topo := randomMST(t, 4, 8)
	oracle := spiceOracle()
	delays, err := oracle.SinkDelays(topo, nil)
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n < topo.NumPins(); n++ {
		if delays[n] <= 0 {
			t.Errorf("sink %d delay %v not positive", n, delays[n])
		}
	}
	// Elmore is an upper-bound-flavoured estimate: it can overestimate
	// near-source sinks severely (resistive shielding), but on the
	// critical (max-delay) sink it tracks the simulator within a small
	// constant — that is the fidelity property [Boese et al.] that makes
	// it a usable oracle. Assert a loose per-sink band and a tight band on
	// the critical sink.
	ed, err := elmoreOracle().SinkDelays(topo, nil)
	if err != nil {
		t.Fatal(err)
	}
	worstSpice, worstElmore := 0.0, 0.0
	for n := 1; n < topo.NumPins(); n++ {
		ratio := ed[n] / delays[n]
		if ratio < 0.3 || ratio > 10 {
			t.Errorf("sink %d: elmore %.3g vs spice %.3g (ratio %.2f)", n, ed[n], delays[n], ratio)
		}
		if delays[n] > worstSpice {
			worstSpice = delays[n]
		}
		if ed[n] > worstElmore {
			worstElmore = ed[n]
		}
	}
	if r := worstElmore / worstSpice; r < 0.7 || r > 2.5 {
		t.Errorf("critical-sink ratio %.2f outside [0.7, 2.5]", r)
	}
}

func TestOracleNames(t *testing.T) {
	if elmoreOracle().Name() != "elmore" || spiceOracle().Name() != "spice" {
		t.Error("oracle names wrong")
	}
	if (MaxDelayObjective{}).Name() == "" {
		t.Error("objective name empty")
	}
	if (&WeightedDelayObjective{}).Name() == "" {
		t.Error("weighted objective name empty")
	}
}

func TestObjectiveErrors(t *testing.T) {
	if _, err := (MaxDelayObjective{}).Eval([]float64{0}, 1); err == nil {
		t.Error("objective with no sinks must error")
	}
	w := &WeightedDelayObjective{Alphas: []float64{1, 2}}
	if _, err := w.Eval([]float64{0, 1, 2, 3}, 4); err == nil {
		t.Error("mismatched weights must error")
	}
}

func TestTraceInvariants(t *testing.T) {
	topo := randomMST(t, 21, 15)
	res, err := LDRG(topo, Options{Oracle: elmoreOracle()})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) != len(res.AddedEdges)+1 {
		t.Fatalf("trace length %d for %d edges", len(res.Trace), len(res.AddedEdges))
	}
	if res.Trace[0] != res.InitialObjective {
		t.Error("trace[0] must equal the initial objective")
	}
	if res.Trace[len(res.Trace)-1] != res.FinalObjective {
		t.Error("trace tail must equal the final objective")
	}
	if res.Evaluations <= len(res.AddedEdges) {
		t.Error("evaluation count implausibly low")
	}
}

func TestWeightedObjectiveUniformEqualsAverage(t *testing.T) {
	topo := randomMST(t, 6, 10)
	alphas := UniformCriticality(topo.NumPins())
	obj := &WeightedDelayObjective{Alphas: alphas}
	delays, err := elmoreOracle().SinkDelays(topo, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := obj.Eval(delays, topo.NumPins())
	if err != nil {
		t.Fatal(err)
	}
	var want float64
	for n := 1; n < topo.NumPins(); n++ {
		want += delays[n]
	}
	if math.Abs(got-want) > 1e-18 {
		t.Errorf("uniform weighted = %v, want %v", got, want)
	}
}

func TestTwoPoleOracle(t *testing.T) {
	topo := randomMST(t, 4, 10)
	oracle := &TwoPoleOracle{Params: rc.Default()}
	if oracle.Name() != "twopole" {
		t.Errorf("name %q", oracle.Name())
	}
	d, err := oracle.SinkDelays(topo, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The two-pole estimate lies between ln2·Elmore-ish and raw Elmore for
	// every sink, and steers LDRG without error.
	ed, err := elmoreOracle().SinkDelays(topo, nil)
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n < topo.NumPins(); n++ {
		if d[n] <= 0 || d[n] > ed[n] {
			t.Errorf("sink %d: two-pole %.4g vs elmore %.4g", n, d[n], ed[n])
		}
	}
	res, err := LDRG(topo, Options{Oracle: oracle, MaxAddedEdges: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalObjective > res.InitialObjective {
		t.Error("two-pole-steered LDRG worsened its objective")
	}
}
