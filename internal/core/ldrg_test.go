package core

import (
	"math"
	"testing"

	"nontree/internal/elmore"
	"nontree/internal/graph"
	"nontree/internal/mst"
	"nontree/internal/netlist"
	"nontree/internal/rc"
)

func elmoreOracle() *ElmoreOracle { return &ElmoreOracle{Params: rc.Default()} }

func spiceOracle() *SpiceOracle { return &SpiceOracle{Params: rc.Default()} }

func randomMST(t *testing.T, seed int64, pins int) *graph.Topology {
	t.Helper()
	gen := netlist.NewGenerator(seed)
	n, err := gen.Generate(pins)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := mst.Prim(n.Pins)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestLDRGNeverWorsensObjective(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		topo := randomMST(t, seed, 10)
		res, err := LDRG(topo, Options{Oracle: elmoreOracle()})
		if err != nil {
			t.Fatal(err)
		}
		if res.FinalObjective > res.InitialObjective {
			t.Errorf("seed %d: objective worsened %.4g → %.4g",
				seed, res.InitialObjective, res.FinalObjective)
		}
		// The trace must be strictly decreasing.
		for i := 1; i < len(res.Trace); i++ {
			if res.Trace[i] >= res.Trace[i-1] {
				t.Errorf("seed %d: trace not decreasing at %d: %v", seed, i, res.Trace)
			}
		}
	}
}

func TestLDRGFindsImprovementsOnLargerNets(t *testing.T) {
	// The paper reports LDRG beats the MST on 100% of 20- and 30-pin nets;
	// with the Elmore oracle we should at minimum see frequent wins.
	wins := 0
	const trials = 10
	for seed := int64(0); seed < trials; seed++ {
		topo := randomMST(t, 1000+seed, 20)
		res, err := LDRG(topo, Options{Oracle: elmoreOracle()})
		if err != nil {
			t.Fatal(err)
		}
		if res.Improved() {
			wins++
			if len(res.AddedEdges) == 0 {
				t.Error("improved but no edges recorded")
			}
		}
	}
	if wins < trials/2 {
		t.Errorf("LDRG won only %d/%d 20-pin nets; paper reports ~100%%", wins, trials)
	}
}

func TestLDRGDoesNotMutateSeed(t *testing.T) {
	topo := randomMST(t, 3, 10)
	edgesBefore := topo.NumEdges()
	costBefore := topo.Cost()
	if _, err := LDRG(topo, Options{Oracle: elmoreOracle()}); err != nil {
		t.Fatal(err)
	}
	if topo.NumEdges() != edgesBefore || topo.Cost() != costBefore {
		t.Error("LDRG mutated its seed topology")
	}
}

func TestLDRGResultTopologyHasAddedEdges(t *testing.T) {
	topo := randomMST(t, 42, 20)
	res, err := LDRG(topo, Options{Oracle: elmoreOracle()})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res.AddedEdges {
		if !res.Topology.HasEdge(e) {
			t.Errorf("added edge %v missing from result topology", e)
		}
		if topo.HasEdge(e) {
			t.Errorf("added edge %v was already in the seed", e)
		}
	}
	if res.Topology.NumEdges() != topo.NumEdges()+len(res.AddedEdges) {
		t.Error("edge count mismatch")
	}
	// Result must remain connected; with any addition it is no longer a tree.
	if !res.Topology.Connected() {
		t.Error("result disconnected")
	}
	if len(res.AddedEdges) > 0 && res.Topology.IsTree() {
		t.Error("result with added edges cannot be a tree")
	}
}

func TestLDRGMaxAddedEdgesRespected(t *testing.T) {
	topo := randomMST(t, 77, 20)
	res, err := LDRG(topo, Options{Oracle: elmoreOracle(), MaxAddedEdges: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.AddedEdges) > 1 {
		t.Errorf("added %d edges with MaxAddedEdges=1", len(res.AddedEdges))
	}
}

func TestLDRGSpiceAndElmoreOraclesBroadlyAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("spice oracle is slow")
	}
	// On the same net, both oracles should find improvements of similar
	// magnitude (they need not pick identical edges).
	topo := randomMST(t, 5, 10)

	resE, err := LDRG(topo, Options{Oracle: elmoreOracle(), MaxAddedEdges: 1})
	if err != nil {
		t.Fatal(err)
	}
	resS, err := LDRG(topo, Options{Oracle: spiceOracle(), MaxAddedEdges: 1})
	if err != nil {
		t.Fatal(err)
	}
	eImp := resE.InitialObjective / math.Max(resE.FinalObjective, 1e-30)
	sImp := resS.InitialObjective / math.Max(resS.FinalObjective, 1e-30)
	if (eImp > 1.02) != (sImp > 1.02) && math.Abs(eImp-sImp) > 0.15 {
		t.Errorf("oracles disagree strongly: elmore improvement ×%.3f vs spice ×%.3f", eImp, sImp)
	}
}

func TestLDRGRejectsBadInputs(t *testing.T) {
	topo := randomMST(t, 1, 5)
	if _, err := LDRG(nil, Options{Oracle: elmoreOracle()}); err != ErrSeedNil {
		t.Errorf("nil seed: got %v", err)
	}
	if _, err := LDRG(topo, Options{}); err != ErrNilOracle {
		t.Errorf("nil oracle: got %v", err)
	}
	disconnected := graph.NewTopology(topo.Points())
	if _, err := LDRG(disconnected, Options{Oracle: elmoreOracle()}); err != ErrSeedInvalid {
		t.Errorf("disconnected seed: got %v", err)
	}
}

func TestWeightedObjectiveSingleCriticalSink(t *testing.T) {
	topo := randomMST(t, 9, 10)
	alphas, err := SingleCriticalSink(topo.NumPins(), 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := CriticalSinkLDRG(topo, alphas, Options{Oracle: elmoreOracle()})
	if err != nil {
		t.Fatal(err)
	}
	// The weighted objective equals the critical sink's delay; it must not
	// increase.
	if res.FinalObjective > res.InitialObjective {
		t.Errorf("critical sink delay worsened: %.4g → %.4g",
			res.InitialObjective, res.FinalObjective)
	}
}

func TestCriticalSinkWeightsValidation(t *testing.T) {
	if _, err := SingleCriticalSink(5, 0); err == nil {
		t.Error("sink 0 (the source) must be rejected")
	}
	if _, err := SingleCriticalSink(5, 5); err == nil {
		t.Error("out-of-range sink must be rejected")
	}
	a, err := SingleCriticalSink(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 0, 1, 0}
	for i := range a {
		if a[i] != want[i] {
			t.Fatalf("weights %v, want %v", a, want)
		}
	}
	u := UniformCriticality(4)
	if len(u) != 3 || u[0] != 1 || u[2] != 1 {
		t.Errorf("UniformCriticality(4) = %v", u)
	}
	topo := randomMST(t, 2, 6)
	if _, err := CriticalSinkLDRG(topo, []float64{1}, Options{Oracle: elmoreOracle()}); err == nil {
		t.Error("mismatched alphas length must be rejected")
	}
}

// TestElmoreBaseDelaysMatchOracle pins the contract that lets a run score
// its seed from the incremental evaluator (IncrementalScorer): the
// evaluator's base delays are bit-identical to ElmoreOracle.SinkDelays on
// the same topology and widths, on trees and graphs alike.
func TestElmoreBaseDelaysMatchOracle(t *testing.T) {
	oracle := elmoreOracle()
	for seed := int64(0); seed < 6; seed++ {
		topo := randomMST(t, 9100+seed, 12)
		var width rc.WidthFunc
		if seed%2 == 1 {
			if err := topo.AddEdge(topo.AbsentEdges()[int(seed)]); err != nil {
				t.Fatal(err)
			}
			width = func(e graph.Edge) float64 { return float64(1 + (e.U+e.V)%3) }
		}
		inc, err := oracle.NewIncrementalSweep(new(elmore.Workspace), new(elmore.Solution), topo, width)
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracle.SinkDelays(topo, width)
		if err != nil {
			t.Fatal(err)
		}
		got := inc.BaseDelays()
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d base delays, oracle gave %d", seed, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Errorf("seed %d node %d: base delay %x, oracle %x", seed, i, got[i], want[i])
			}
		}
	}
}
