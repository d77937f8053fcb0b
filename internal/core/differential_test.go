package core

import (
	"testing"

	"nontree/internal/elmore"
	"nontree/internal/graph"
	"nontree/internal/rc"
)

// Differential suite: the analytic delay models and the transient
// simulator are independent implementations of the same physics, so we can
// cross-check them on a broad seeded workload without any golden values.
//
// The simulator is run on the *lumped* network (MaxSegmentLength far above
// any wirelength, so segmentation inserts no interior nodes) — then the
// Rubinstein–Penfield-style bounds of elmore.Bounds apply to exactly the
// network being simulated and containment is a theorem, not a tolerance.

// lumpedSpice measures 50%-crossing delays of the unsegmented network.
func lumpedSpice() *SpiceOracle {
	return &SpiceOracle{
		Params: rc.Default(),
		Build:  rc.BuildOpts{MaxSegmentLength: 1e9},
	}
}

// checkBounds asserts every sink's simulated delay lies inside the
// analytic crossing-time bounds for the same lumped network.
func checkBounds(t *testing.T, topo *graph.Topology, label string) {
	t.Helper()
	l := new(rc.Lumped)
	if err := rc.Lump(l, topo, rc.Default(), nil); err != nil {
		t.Fatalf("%s: lumping: %v", label, err)
	}
	b, err := elmore.Bounds(topo, l, 0.5)
	if err != nil {
		t.Fatalf("%s: bounds: %v", label, err)
	}
	measured, err := lumpedSpice().SinkDelays(topo, nil)
	if err != nil {
		t.Fatalf("%s: spice: %v", label, err)
	}
	for n := 1; n < topo.NumPins(); n++ {
		if !b.Contains(n, measured[n]) {
			t.Errorf("%s: sink %d: simulated delay %.4g outside bounds [%.4g, %.4g]",
				label, n, measured[n], b.Lower[n], b.Upper[n])
		}
	}
}

// TestDifferentialSpiceWithinElmoreBounds sweeps ~50 seeded nets (sizes
// 4–8 × 10 trials) and checks simulator-vs-bounds containment on the MST.
func TestDifferentialSpiceWithinElmoreBounds(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep in short mode")
	}
	for pins := 4; pins <= 8; pins++ {
		for trial := int64(0); trial < 10; trial++ {
			topo := randomMST(t, 7000+int64(pins)*100+trial, pins)
			checkBounds(t, topo, labelFor(pins, trial, "mst"))
		}
	}
}

// TestDifferentialBoundsHoldOnNonTrees repeats the containment check on
// LDRG outputs — the bounds theory covers arbitrary grounded RC networks,
// not just trees, so the routing graphs with extra edges must satisfy it
// too.
func TestDifferentialBoundsHoldOnNonTrees(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep in short mode")
	}
	for pins := 5; pins <= 8; pins++ {
		for trial := int64(0); trial < 3; trial++ {
			topo := randomMST(t, 7500+int64(pins)*100+trial, pins)
			res, err := LDRG(topo, Options{Oracle: elmoreOracle()})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.AddedEdges) == 0 {
				continue // still a tree; covered by the MST sweep
			}
			checkBounds(t, res.Topology, labelFor(pins, trial, "ldrg"))
		}
	}
}

func labelFor(pins int, trial int64, algo string) string {
	return algo + "/" + string(rune('0'+pins)) + "p/t" + string(rune('0'+trial))
}

// TestDifferentialAcceptedEdgeSignAgreement checks that on the H2/H3
// fixtures the Elmore search oracle and the transient simulator agree on
// the *sign* of each accepted edge's improvement: every edge the greedy
// loop accepts under the Elmore objective must also strictly reduce the
// simulated max sink delay. The fixture seeds are pinned; the property was
// verified to hold for them and guards against model/simulator divergence.
func TestDifferentialAcceptedEdgeSignAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("simulator sweep in short mode")
	}
	type fixture struct {
		name string
		seed int64
		pins int
		run  func(seed *graph.Topology) (*Result, error)
	}
	fixtures := []fixture{
		{"h2/seed3/8p", 3, 8, func(s *graph.Topology) (*Result, error) {
			return H2(s, rc.Default(), Options{Oracle: elmoreOracle(), MaxAddedEdges: 1})
		}},
		{"h2/seed5/10p", 5, 10, func(s *graph.Topology) (*Result, error) {
			return H2(s, rc.Default(), Options{Oracle: elmoreOracle(), MaxAddedEdges: 1})
		}},
		{"h3/seed3/8p", 3, 8, func(s *graph.Topology) (*Result, error) {
			return H3(s, rc.Default(), Options{Oracle: elmoreOracle(), MaxAddedEdges: 1})
		}},
		{"h3/seed7/10p", 7, 10, func(s *graph.Topology) (*Result, error) {
			return H3(s, rc.Default(), Options{Oracle: elmoreOracle(), MaxAddedEdges: 1})
		}},
	}
	for _, fx := range fixtures {
		seed := randomMST(t, fx.seed, fx.pins)
		res, err := fx.run(seed)
		if err != nil {
			t.Fatalf("%s: %v", fx.name, err)
		}
		if len(res.AddedEdges) == 0 {
			t.Fatalf("%s: fixture accepted no edges; pick a different seed", fx.name)
		}
		before, err := maxSimulatedDelay(seed)
		if err != nil {
			t.Fatalf("%s: %v", fx.name, err)
		}
		// Replay the acceptance sequence, checking each step's sign.
		cur := seed.Clone()
		for i, e := range res.AddedEdges {
			if err := cur.AddEdge(e); err != nil {
				t.Fatalf("%s: replaying edge %d: %v", fx.name, i, err)
			}
			after, err := maxSimulatedDelay(cur)
			if err != nil {
				t.Fatalf("%s: %v", fx.name, err)
			}
			if after >= before {
				t.Errorf("%s: accepted edge %v did not improve simulated delay (%.4g → %.4g)",
					fx.name, e, before, after)
			}
			before = after
		}
	}
}

func maxSimulatedDelay(topo *graph.Topology) (float64, error) {
	delays, err := lumpedSpice().SinkDelays(topo, nil)
	if err != nil {
		return 0, err
	}
	return elmore.MaxSinkDelay(delays, topo.NumPins()), nil
}
