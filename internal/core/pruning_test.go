package core

import (
	"fmt"
	"maps"
	"math"
	"testing"

	"nontree/internal/geom"
	"nontree/internal/graph"
	"nontree/internal/mst"
	"nontree/internal/rc"
	"nontree/internal/trace"
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
// carry no bound; what the audit certifies here are the early stops.
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

// fullMaxObjective is MaxDelayObjective under another type: its Eval is
// the same, but the scan enables early stops only for MaxDelayObjective
// itself, so a run under it probes every candidate in full.
type fullMaxObjective struct{ MaxDelayObjective }

// TestEarlyStopMatchesFullProbe is the early stop's referee at net sizes
// FuzzSweepVsReference does not draw. Every run, audited, must decide what
// the same run without early stops decides, with the same Evaluations and
// byte-identical non-candidate events. Candidate events may differ only
// in kind and value: a stopped candidate's bound must not exceed the value
// the full probe scored, its Before must be the running minimum of the
// values scored before it in its scan, and every other candidate's value
// must be equal.
func TestEarlyStopMatchesFullProbe(t *testing.T) {
	type net struct {
		name string
		topo *graph.Topology
	}
	var nets []net
	for _, pins := range []int{30, 60, 100} {
		for seed := int64(1); seed <= 5; seed++ {
			nets = append(nets, net{fmt.Sprintf("pins %d seed %d", pins, seed), randomMST(t, seed, pins)})
		}
	}
	// Mirror-symmetric grids give candidates whose values tie up to
	// rounding, the case earlyStopMargin exists for: with no margin the
	// audit fails on every one of them.
	for k := 2; k <= 4; k++ {
		nets = append(nets, net{fmt.Sprintf("grid %d", k), gridMST(t, k)})
	}
	for _, n := range nets {
		for _, taps := range []bool{false, true} {
			run := LDRG
			if taps {
				run = LDRGWithTaps
			}
			label := fmt.Sprintf("%s taps=%v", n.name, taps)
			traced := func(obj Objective) (*Result, []trace.Event) {
				ring := trace.NewRing(1 << 20)
				res, err := run(n.topo, Options{Oracle: elmoreOracle(), Objective: obj, Trace: ring, auditPruning: true})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				return res, ring.Events()
			}
			got, gotEvents := traced(nil)
			ref, refEvents := traced(fullMaxObjective{})
			matchReference(t, label, ref, got)
			if got.Evaluations != ref.Evaluations {
				t.Errorf("%s: %d evaluations, want %d", label, got.Evaluations, ref.Evaluations)
			}
			if len(gotEvents) != len(refEvents) {
				t.Fatalf("%s: %d events, want %d", label, len(gotEvents), len(refEvents))
			}
			var gotOther, refOther []trace.Event
			stopped, runMin := 0, math.Inf(1)
			for k, ev := range gotEvents {
				want := refEvents[k]
				if !isCandidate(ev) || !isCandidate(want) {
					gotOther, refOther = append(gotOther, ev.Deterministic()), append(refOther, want.Deterministic())
					runMin = math.Inf(1) // a sweep_start opens the next scan
					continue
				}
				if candidateID(ev) != candidateID(want) || want.Kind != trace.KindCandidateScored {
					t.Fatalf("%s: event %d is %+v, want the candidate of %+v", label, k, ev, want)
				}
				if ev.Kind == trace.KindCandidateScored {
					if math.Float64bits(ev.Value) != math.Float64bits(want.Value) {
						t.Errorf("%s: sweep %d candidate %d scored %v, want %v", label, ev.Sweep, ev.Index, ev.Value, want.Value)
					}
					runMin = min(runMin, ev.Value)
					continue
				}
				stopped++
				if ev.Value > want.Value {
					t.Errorf("%s: sweep %d candidate %d stopped at bound %v above its value %v", label, ev.Sweep, ev.Index, ev.Value, want.Value)
				}
				if math.Float64bits(ev.Before) != math.Float64bits(runMin) {
					t.Errorf("%s: sweep %d candidate %d stopped against %v, want the running minimum %v", label, ev.Sweep, ev.Index, ev.Before, runMin)
				}
			}
			if g, w := trace.Fingerprint(gotOther), trace.Fingerprint(refOther); g != w {
				t.Errorf("%s: non-candidate events differ:\n%s\nwant:\n%s", label, g, w)
			}
			if stopped == 0 {
				t.Errorf("%s: no probe stopped; the case checks nothing", label)
			}
		}
	}
}

func isCandidate(ev trace.Event) bool {
	return ev.Kind == trace.KindCandidateScored || ev.Kind == trace.KindCandidatePruned
}

// candidateID is a candidate event without its kind and scores.
func candidateID(ev trace.Event) trace.Event {
	ev.Seq, ev.Kind, ev.Value, ev.Before, ev.Elapsed = 0, 0, 0, 0, 0
	return ev
}

// gridMST is the MST of a (2k+1)×(2k+1) grid of pins 1 mm apart with the
// source at its centre.
func gridMST(t *testing.T, k int) *graph.Topology {
	t.Helper()
	pts := []geom.Point{{}}
	for i := -k; i <= k; i++ {
		for j := -k; j <= k; j++ {
			if i != 0 || j != 0 {
				pts = append(pts, geom.Point{X: float64(i) * 1000, Y: float64(j) * 1000})
			}
		}
	}
	topo, err := mst.Prim(pts)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}
