package core

import (
	"fmt"
	"runtime"
	"testing"

	"nontree/internal/graph"
	"nontree/internal/steiner"
	"nontree/internal/trace"
)

// This file is the equivalence layer locking down incremental scoring:
// every sweep algorithm, run with full solves and with incremental scoring
// plus pruning, must make exactly the reference greedy's decisions (see
// reference_test.go) — same Result fingerprint, same accepted-edge
// sequence in the trace — at every worker count. Workers is part of the
// grid even though incremental sweeps scan sequentially: the contract is
// that Workers NEVER changes decisions, whichever scoring path it ends up
// steering.

// eqRun is one algorithm invocation on the oracle of a scoring path (see
// scoredBy) at a worker count. It returns the result fingerprint.
type eqRun func(t *testing.T, oracle DelayOracle, workers int, tr trace.Tracer) string

// scoredBy returns the Elmore oracle the sweeps score incrementally, or
// with full set, the same oracle behind fullSolve.
func scoredBy(full bool) DelayOracle {
	if full {
		return fullSolve{elmoreOracle()}
	}
	return elmoreOracle()
}

func acceptedOf(t *testing.T, label string, fn func(tr trace.Tracer) error) []trace.AcceptedEdge {
	t.Helper()
	return trace.AcceptedEdges(traceOf(t, label, 1<<16, fn))
}

// eqRef computes an algorithm's reference decisions: the fingerprint and
// the accepted edges.
type eqRef func(t *testing.T) (string, []trace.AcceptedEdge)

// greedyRef is the eqRef of the reference greedy over seed.
func greedyRef(seed *graph.Topology, opts Options, taps bool) eqRef {
	return func(t *testing.T) (string, []trace.AcceptedEdge) {
		res, accepted, err := referenceGreedy(seed, opts, taps)
		if err != nil {
			t.Fatal(err)
		}
		return res.Fingerprint(), accepted
	}
}

// TestScoringEquivalence is the table: every full-solve and incremental
// (with pruning) run, at every worker count, must match the reference
// greedy exactly. H1–H3 take no sweep scan; their reference is their own
// full-solve Workers=1 run.
func TestScoringEquivalence(t *testing.T) {
	topo := randomMST(t, 6001, 12)
	tapTopo := randomMST(t, 6002, 9)
	net := randomNet(t, 6003, 10)
	params := elmoreOracle().Params
	alphas := UniformCriticality(12)
	steinerSeed, err := steiner.Tree(net.Pins, steiner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wireSizeRef := func(wopts WireSizeOptions) eqRef {
		return func(t *testing.T) (string, []trace.AcceptedEdge) {
			res, err := referenceWireSize(topo, wopts, Options{Oracle: elmoreOracle()})
			if err != nil {
				t.Fatal(err)
			}
			return res.Fingerprint(), nil
		}
	}
	horgAlphas := UniformCriticality(len(net.Pins))
	horgObj := &WeightedDelayObjective{Alphas: horgAlphas}

	algos := []struct {
		name string
		run  eqRun
		ref  eqRef // nil: the full-solve Workers=1 run
	}{
		{"LDRG", func(t *testing.T, o DelayOracle, w int, tr trace.Tracer) string {
			res, err := LDRG(topo, Options{Oracle: o, Workers: w, Trace: tr})
			if err != nil {
				t.Fatal(err)
			}
			return res.Fingerprint()
		}, greedyRef(topo, Options{Oracle: elmoreOracle()}, false)},
		{"SLDRG", func(t *testing.T, o DelayOracle, w int, tr trace.Tracer) string {
			res, err := SLDRG(net.Pins, steiner.Options{}, Options{Oracle: o, Workers: w, Trace: tr})
			if err != nil {
				t.Fatal(err)
			}
			return res.Fingerprint()
		}, greedyRef(steinerSeed, Options{Oracle: elmoreOracle()}, false)},
		{"LDRGWithTaps", func(t *testing.T, o DelayOracle, w int, tr trace.Tracer) string {
			res, err := LDRGWithTaps(tapTopo, Options{Oracle: o, Workers: w, Trace: tr})
			if err != nil {
				t.Fatal(err)
			}
			return res.Fingerprint()
		}, greedyRef(tapTopo, Options{Oracle: elmoreOracle()}, true)},
		{"CriticalSinkLDRG", func(t *testing.T, o DelayOracle, w int, tr trace.Tracer) string {
			res, err := CriticalSinkLDRG(topo, alphas, Options{Oracle: o, Workers: w, Trace: tr})
			if err != nil {
				t.Fatal(err)
			}
			return res.Fingerprint()
		}, greedyRef(topo, Options{Oracle: elmoreOracle(), Objective: &WeightedDelayObjective{Alphas: alphas}}, false)},
		{"H1", func(t *testing.T, o DelayOracle, w int, tr trace.Tracer) string {
			res, err := H1(topo, Options{Oracle: o, Workers: w, Trace: tr})
			if err != nil {
				t.Fatal(err)
			}
			return res.Fingerprint()
		}, nil},
		{"H2", func(t *testing.T, o DelayOracle, w int, tr trace.Tracer) string {
			res, err := H2(topo, params, Options{Oracle: o, Workers: w, Trace: tr})
			if err != nil {
				t.Fatal(err)
			}
			return res.Fingerprint()
		}, nil},
		{"H3", func(t *testing.T, o DelayOracle, w int, tr trace.Tracer) string {
			res, err := H3(topo, params, Options{Oracle: o, Workers: w, Trace: tr})
			if err != nil {
				t.Fatal(err)
			}
			return res.Fingerprint()
		}, nil},
		{"WireSize", func(t *testing.T, o DelayOracle, w int, tr trace.Tracer) string {
			res, err := WireSize(topo, WireSizeOptions{MaxWidth: 3}, Options{Oracle: o, Workers: w, Trace: tr})
			if err != nil {
				t.Fatal(err)
			}
			return res.Fingerprint()
		}, wireSizeRef(WireSizeOptions{MaxWidth: 3})},
		{"WireSizeMaxWidth2", func(t *testing.T, o DelayOracle, w int, tr trace.Tracer) string {
			res, err := WireSize(topo, WireSizeOptions{MaxWidth: 2}, Options{Oracle: o, Workers: w, Trace: tr})
			if err != nil {
				t.Fatal(err)
			}
			return res.Fingerprint()
		}, wireSizeRef(WireSizeOptions{MaxWidth: 2})},
		{"HORG", func(t *testing.T, o DelayOracle, w int, tr trace.Tracer) string {
			res, err := HORG(net.Pins, horgAlphas, true,
				WireSizeOptions{MaxWidth: 3},
				Options{Oracle: o, Workers: w, Trace: tr})
			if err != nil {
				t.Fatal(err)
			}
			return res.Routing.Fingerprint() + res.Sizing.Fingerprint()
		}, func(t *testing.T) (string, []trace.AcceptedEdge) {
			routing, accepted, err := referenceGreedy(steinerSeed, Options{Oracle: elmoreOracle(), Objective: horgObj}, false)
			if err != nil {
				t.Fatal(err)
			}
			sizing, err := referenceWireSize(routing.Topology, WireSizeOptions{MaxWidth: 3}, Options{Oracle: elmoreOracle(), Objective: horgObj})
			if err != nil {
				t.Fatal(err)
			}
			return routing.Fingerprint() + sizing.Fingerprint(), accepted
		}},
	}

	workerGrid := []int{1, 4, runtime.GOMAXPROCS(0)}
	for _, a := range algos {
		t.Run(a.name, func(t *testing.T) {
			var refFP string
			var refAccepted []trace.AcceptedEdge
			if a.ref != nil {
				refFP, refAccepted = a.ref(t)
			} else {
				refAccepted = acceptedOf(t, a.name+"/full/w1", func(tr trace.Tracer) error {
					refFP = a.run(t, scoredBy(true), 1, tr)
					return nil
				})
			}
			for _, full := range []bool{true, false} {
				for _, w := range workerGrid {
					label := fmt.Sprintf("full=%v/w%d", full, w)
					var fp string
					accepted := acceptedOf(t, a.name+"/"+label, func(tr trace.Tracer) error {
						fp = a.run(t, scoredBy(full), w, tr)
						return nil
					})
					if fp != refFP {
						t.Errorf("%s: fingerprint drifted from the reference:\ngot:\n%swant:\n%s", label, fp, refFP)
					}
					if len(accepted) != len(refAccepted) {
						t.Fatalf("%s: %d accepted edges in trace, reference %d", label, len(accepted), len(refAccepted))
					}
					for i := range accepted {
						if accepted[i] != refAccepted[i] {
							t.Errorf("%s: accepted edge %d = %+v, reference %+v", label, i, accepted[i], refAccepted[i])
						}
					}
				}
			}
		})
	}
}

// TestScoringEquivalenceEvaluationsDrop pins the point of the whole
// exercise: the decisions are identical, but the incremental path must do
// strictly less oracle work — and not marginally less. A 2× floor here is
// deliberately loose (BENCH gates the real 10×) so the test stays robust
// on tiny nets.
func TestScoringEquivalenceEvaluationsDrop(t *testing.T) {
	topo := randomMST(t, 6004, 14)
	full, err := LDRG(topo, Options{Oracle: scoredBy(true)})
	if err != nil {
		t.Fatal(err)
	}
	inc, err := LDRG(topo, Options{Oracle: scoredBy(false)})
	if err != nil {
		t.Fatal(err)
	}
	if inc.Fingerprint() != full.Fingerprint() {
		t.Fatalf("scoring paths disagree on decisions:\n%s\nvs\n%s", inc.Fingerprint(), full.Fingerprint())
	}
	if inc.Evaluations*2 > full.Evaluations {
		t.Errorf("incremental path did %d oracle evaluations, full did %d; expected at least a 2x drop",
			inc.Evaluations, full.Evaluations)
	}
}
