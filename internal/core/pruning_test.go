package core

import (
	"fmt"
	"testing"

	"nontree/internal/graph"
	"nontree/internal/rc"
	"nontree/internal/trace"
)

// This file is the differential layer for pruning soundness. The pruning
// audit (Options.auditPruning) re-scores every pruned candidate after each
// sweep and fails with errPruningUnsound if any of them could have changed
// the decision;
// the metamorphic test checks a structural property of the bound — uniform
// resistance scaling multiplies every delay, bound, and threshold by the
// same constant, so the *set* of pruned candidates must not move.

// TestDebugScoringAuditPasses runs the audit over a seeded corpus: no run
// may trip errPruningUnsound, and the audited runs must decide exactly what
// unaudited runs decide (the audit is observation-only).
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
// whose bound (WideningBound) is derived differently from the addition
// bound.
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

// prunedSet extracts the (sweep, index) pairs of candidate_pruned events.
func prunedSet(events []trace.Event) map[string]bool {
	set := map[string]bool{}
	for _, e := range events {
		if e.Kind == trace.KindCandidatePruned {
			set[fmt.Sprintf("%d/%d", e.Sweep, e.Index)] = true
		}
	}
	return set
}

// TestMetamorphicPruningScaleInvariance: Elmore delays are linear in
// resistance, so scaling DriverResistance and WireResistance by the same
// constant scales every candidate value, every lower bound, and every
// acceptance threshold together. The decision sequence AND the pruned set
// must therefore be identical — if scaling moves a candidate across the
// pruning cutoff, the bound depends on something it must not.
func TestMetamorphicPruningScaleInvariance(t *testing.T) {
	const k = 4
	for seed := int64(6140); seed < 6146; seed++ {
		topo := randomMST(t, seed, 11)

		run := func(p rc.Params) ([]trace.Event, *Result) {
			var res *Result
			events := traceOf(t, fmt.Sprintf("seed%d", seed), 1<<16, func(tr trace.Tracer) error {
				var err error
				res, err = LDRG(topo, Options{Oracle: &ElmoreOracle{Params: p}, Trace: tr})
				return err
			})
			return events, res
		}

		base := rc.Default()
		scaled := base
		scaled.DriverResistance *= k
		scaled.WireResistance *= k

		evBase, resBase := run(base)
		evScaled, resScaled := run(scaled)

		if len(resBase.AddedEdges) != len(resScaled.AddedEdges) {
			t.Fatalf("seed %d: scaling changed acceptance count %d -> %d",
				seed, len(resBase.AddedEdges), len(resScaled.AddedEdges))
		}
		for i := range resBase.AddedEdges {
			if resBase.AddedEdges[i] != resScaled.AddedEdges[i] {
				t.Errorf("seed %d: accepted edge %d moved: %v -> %v",
					seed, i, resBase.AddedEdges[i], resScaled.AddedEdges[i])
			}
		}

		pb, ps := prunedSet(evBase), prunedSet(evScaled)
		if len(pb) != len(ps) {
			t.Fatalf("seed %d: pruned-set size changed under scaling: %d -> %d", seed, len(pb), len(ps))
		}
		for key := range pb {
			if !ps[key] {
				t.Errorf("seed %d: candidate %s pruned at base scale but not at %dx", seed, key, k)
			}
		}
		if len(pb) == 0 {
			t.Logf("seed %d: corpus entry prunes nothing; consider retiring it", seed)
		}
	}
}
