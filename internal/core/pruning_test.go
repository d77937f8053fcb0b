package core

import (
	"fmt"
	"maps"
	"testing"

	"nontree/internal/graph"
	"nontree/internal/rc"
)

// This file is the differential layer for pruning soundness. The pruning
// audit (Options.auditPruning) re-scores every pruned candidate after each
// sweep and fails with errPruningUnsound if any of them could have changed
// the decision; the metamorphic test checks that uniform resistance
// scaling, which multiplies every delay, bound and threshold by the same
// constant, moves no decision.

// TestDebugScoringAuditPasses runs the audit over a seeded corpus: no run
// may trip errPruningUnsound, and the audited runs must decide exactly what
// unaudited runs decide (the audit is observation-only). Edge candidates
// carry no bound, so nothing is pruned here yet; the test keeps the audited
// LDRG path exercised for a future edge bound.
func TestDebugScoringAuditPasses(t *testing.T) {
	for seed := int64(6100); seed < 6112; seed++ {
		pins := 8 + int(seed%3)*3
		topo := randomMST(t, seed, pins)
		auto, err := LDRG(topo, Options{Oracle: elmoreOracle()})
		if err != nil {
			t.Fatal(err)
		}
		dbg, err := LDRG(topo, Options{Oracle: elmoreOracle(), auditPruning: true})
		if err != nil {
			t.Fatalf("seed %d: debug audit failed: %v", seed, err)
		}
		if dbg.Fingerprint() != auto.Fingerprint() {
			t.Errorf("seed %d: audit mode changed decisions:\n%s\nvs\n%s", seed, dbg.Fingerprint(), auto.Fingerprint())
		}
	}
}

// TestDebugScoringAuditWireSize extends the audit to the widening sweep,
// the one sweep whose candidates carry a bound (WideningBound).
func TestDebugScoringAuditWireSize(t *testing.T) {
	for seed := int64(6120); seed < 6126; seed++ {
		topo := randomMST(t, seed, 10)
		auto, err := WireSize(topo, WireSizeOptions{MaxWidth: 3}, Options{Oracle: elmoreOracle()})
		if err != nil {
			t.Fatal(err)
		}
		dbg, err := WireSize(topo, WireSizeOptions{MaxWidth: 3}, Options{Oracle: elmoreOracle(), auditPruning: true})
		if err != nil {
			t.Fatalf("seed %d: debug audit failed: %v", seed, err)
		}
		if dbg.Fingerprint() != auto.Fingerprint() {
			t.Errorf("seed %d: audit mode changed widths:\n%s\nvs\n%s", seed, dbg.Fingerprint(), auto.Fingerprint())
		}
	}
}

// TestDebugScoringRejectsNonIncrementalOracle pins the error contract:
// asking for an audit on an oracle that cannot score incrementally is a
// configuration error, not a silent fallback.
func TestDebugScoringRejectsNonIncrementalOracle(t *testing.T) {
	topo := randomMST(t, 6130, 8)
	stub := &fixedOracle{}
	_, err := LDRG(topo, Options{Oracle: stub, auditPruning: true})
	if err == nil {
		t.Fatal("the pruning audit with a non-incremental oracle must fail loudly")
	}
}

// fixedOracle is a DelayOracle with no incremental support: constant unit
// delay per node.
type fixedOracle struct{}

func (o *fixedOracle) Name() string { return "fixed" }

func (o *fixedOracle) SinkDelays(t *graph.Topology, width rc.WidthFunc) ([]float64, error) {
	d := make([]float64, t.NumNodes())
	for i := range d {
		d[i] = 1e-9
	}
	return d, nil
}

// TestMetamorphicResistanceScaleInvariance: Elmore delays are linear in
// resistance, so scaling DriverResistance and WireResistance by the same
// constant scales every candidate value, every widening bound and every
// acceptance threshold together. LDRG's accepted edges and WireSize's
// widths must therefore be identical — if scaling moves a decision, a
// comparison or a bound depends on something it must not.
func TestMetamorphicResistanceScaleInvariance(t *testing.T) {
	const k = 4
	base := rc.Default()
	scaled := base
	scaled.DriverResistance *= k
	scaled.WireResistance *= k
	for seed := int64(6140); seed < 6146; seed++ {
		topo := randomMST(t, seed, 11)
		var added [2]string
		var widths [2]map[graph.Edge]int
		for i, p := range []rc.Params{base, scaled} {
			res, err := LDRG(topo, Options{Oracle: &ElmoreOracle{Params: p}})
			if err != nil {
				t.Fatal(err)
			}
			ws, err := WireSize(topo, WireSizeOptions{MaxWidth: 3}, Options{Oracle: &ElmoreOracle{Params: p}})
			if err != nil {
				t.Fatal(err)
			}
			added[i], widths[i] = fmt.Sprint(res.AddedEdges), ws.Widths
		}
		if added[0] != added[1] {
			t.Errorf("seed %d: accepted edges moved under %dx scaling: %s -> %s", seed, k, added[0], added[1])
		}
		if !maps.Equal(widths[0], widths[1]) {
			t.Errorf("seed %d: widths moved under %dx scaling: %v -> %v", seed, k, widths[0], widths[1])
		}
	}
}
