package core

import (
	"fmt"
	"math"
	"testing"

	"nontree/internal/graph"
	"nontree/internal/rc"
	"nontree/internal/trace"
)

// The reference greedy: a deliberately naive transcription of the paper's
// loops (Figs. 4 and 6, §5.2) that shares no scan, pool or selection code
// with the package. Every candidate gets one full oracle solve on the live
// state — an edge is added, scored and removed; a tap is applied to a
// clone; a width is bumped and reverted — and the first strict minimum
// below the threshold is accepted. The equivalence, parallel and fuzz
// suites hold both scoring paths and every worker count to it.

// fullSolve hides the wrapped oracle's IncrementalScorer (embedding the
// interface keeps only SinkDelays and Name), so every sweep over it scores
// candidates with full solves on the worker pool.
type fullSolve struct{ DelayOracle }

func refScore(t *graph.Topology, opts *Options, width rc.WidthFunc) (float64, error) {
	delays, err := opts.Oracle.SinkDelays(t, width)
	if err != nil {
		return 0, err
	}
	return opts.objective().Eval(delays, t.NumPins())
}

// referenceGreedy runs LDRG, or LDRGWithTaps with taps set. It also
// returns the accepted modifications in the form the trace reports them.
func referenceGreedy(seed *graph.Topology, opts Options, taps bool) (*Result, []trace.AcceptedEdge, error) {
	t := seed.Clone()
	cur, err := refScore(t, &opts, opts.Width)
	if err != nil {
		return nil, nil, err
	}
	res := &Result{Topology: t, InitialObjective: cur, Trace: []float64{cur}, Evaluations: 1}
	var accepted []trace.AcceptedEdge
	for opts.MaxAddedEdges <= 0 || len(res.AddedEdges) < opts.MaxAddedEdges {
		threshold := cur * (1 - minImprovement)
		edgeVal, edgeOK := cur, false
		var edge graph.Edge
		for _, e := range candidateEdges(t, &opts) {
			if err := t.AddEdge(e); err != nil {
				return nil, nil, err
			}
			val, err := refScore(t, &opts, opts.Width)
			if err != nil {
				return nil, nil, err
			}
			if err := t.RemoveEdge(e); err != nil {
				return nil, nil, err
			}
			res.Evaluations++
			if val < edgeVal && val < threshold {
				edgeVal, edge, edgeOK = val, e, true
			}
		}
		tapVal, tapOK := cur, false
		var tap tapCandidate
		if taps {
			for _, c := range tapCandidates(t) {
				clone := t.Clone()
				if _, err := applyTap(clone, c.edge, c.point); err != nil {
					return nil, nil, err
				}
				val, err := refScore(clone, &opts, opts.Width)
				if err != nil {
					return nil, nil, err
				}
				res.Evaluations++
				if val < tapVal && val < threshold {
					tapVal, tap, tapOK = val, c, true
				}
			}
		}
		switch {
		case tapOK && (!edgeOK || tapVal < edgeVal):
			wire, err := applyTap(t, tap.edge, tap.point)
			if err != nil {
				return nil, nil, err
			}
			edge, cur = wire, tapVal
			accepted = append(accepted, trace.AcceptedEdge{U: wire.U, V: wire.V, Tap: true,
				X: tap.point.X, Y: tap.point.Y, After: cur})
		case edgeOK:
			if err := t.AddEdge(edge); err != nil {
				return nil, nil, err
			}
			cur = edgeVal
			accepted = append(accepted, trace.AcceptedEdge{U: edge.U, V: edge.V, After: cur})
		default:
			return referenceDone(res, cur, taps, accepted)
		}
		res.AddedEdges = append(res.AddedEdges, edge)
		res.Trace = append(res.Trace, cur)
	}
	return referenceDone(res, cur, taps, accepted)
}

func referenceDone(res *Result, cur float64, taps bool, accepted []trace.AcceptedEdge) (*Result, []trace.AcceptedEdge, error) {
	res.FinalObjective = cur
	if !taps {
		return res, accepted, nil
	}
	res, err := compactTapResult(res)
	return res, accepted, err
}

// referenceWireSize runs the WSORG greedy: widths are bumped in the shared
// map, scored and reverted one candidate at a time.
func referenceWireSize(t *graph.Topology, wopts WireSizeOptions, opts Options) (*WireSizeResult, error) {
	maxW := wopts.MaxWidth
	if maxW <= 0 {
		maxW = 4
	}
	widths := map[graph.Edge]int{}
	for _, e := range t.Edges() {
		widths[e] = 1
	}
	width := func(e graph.Edge) float64 { return float64(widths[e.Canon()]) }
	cur, err := refScore(t, &opts, width)
	if err != nil {
		return nil, err
	}
	res := &WireSizeResult{Widths: widths, InitialObjective: cur, Evaluations: 1}
	for {
		threshold := cur * (1 - minImprovement)
		best, bestVal := graph.Edge{U: -1, V: -1}, cur
		for _, e := range t.Edges() {
			if widths[e] >= maxW {
				continue
			}
			widths[e]++
			val, err := refScore(t, &opts, width)
			widths[e]--
			if err != nil {
				return nil, err
			}
			res.Evaluations++
			if val < threshold && val < bestVal {
				best, bestVal = e, val
			}
		}
		if best.U < 0 {
			break
		}
		widths[best]++
		res.Widenings++
		cur = bestVal
	}
	res.FinalObjective = cur
	return res, nil
}

// matchReference asserts got made exactly the reference's decisions.
func matchReference(t *testing.T, label string, ref, got *Result) {
	t.Helper()
	if g, w := got.Fingerprint(), ref.Fingerprint(); g != w {
		t.Errorf("%s: decisions differ from the reference greedy:\ngot:\n%swant:\n%s", label, g, w)
	}
}

// FuzzSweepVsReference drives LDRG, LDRGWithTaps and WireSize over random
// nets on both scoring paths and at several worker counts, and requires
// each run to decide exactly what the reference greedy decides. The
// incremental runs also audit their pruning, so every fuzzed sweep
// certifies its bounds.
func FuzzSweepVsReference(f *testing.F) {
	f.Add(int64(1994), uint8(13), uint8(0), false, false)
	f.Add(int64(42), uint8(5), uint8(1), true, true)
	f.Add(int64(7), uint8(7), uint8(2), false, true)
	f.Add(int64(808), uint8(7), uint8(3), true, false)
	f.Add(int64(3), uint8(0), uint8(1), false, false)
	f.Fuzz(func(t *testing.T, seed int64, pins, kind uint8, full, pool bool) {
		topo := randomMST(t, seed, 3+int(pins)%10)
		opts := Options{Oracle: scoredBy(full), Workers: 1, auditPruning: !full}
		if pool {
			opts.Workers = 3
		}
		label := fmt.Sprintf("seed=%d pins=%d kind=%d full=%v workers=%d",
			seed, topo.NumPins(), kind%4, full, opts.Workers)
		var got, want string
		switch kind % 4 {
		case 0, 1:
			taps := kind%4 == 1
			ref, _, err := referenceGreedy(topo, opts, taps)
			if err != nil {
				t.Fatal(err)
			}
			run := LDRG
			if taps {
				run = LDRGWithTaps
			}
			res, err := run(topo, opts)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			got, want = res.Fingerprint(), ref.Fingerprint()
		default:
			wopts := WireSizeOptions{MaxWidth: 3}
			if kind%4 == 3 {
				wopts.MaxWidth = 2
			}
			ref, err := referenceWireSize(topo, wopts, opts)
			if err != nil {
				t.Fatal(err)
			}
			res, err := WireSize(topo, wopts, opts)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			got, want = res.Fingerprint(), ref.Fingerprint()
		}
		if got != want {
			t.Errorf("%s: decisions differ from the reference greedy:\ngot:\n%swant:\n%s", label, got, want)
		}
	})
}

// quantizedOracle rounds Elmore delays to a coarse grid so that many
// candidates score exactly the same objective: it exercises the
// tie-breaking rule (the earliest candidate in canonical order wins),
// which seeded random nets almost never reach.
type quantizedOracle struct{}

func (quantizedOracle) Name() string { return "quantized" }

func (quantizedOracle) SinkDelays(t *graph.Topology, width rc.WidthFunc) ([]float64, error) {
	delays, err := elmoreOracle().SinkDelays(t, width)
	for i, d := range delays {
		delays[i] = math.Round(d/5e-11) * 5e-11
	}
	return delays, err
}

// TestSweepTiesMatchReference runs the three sweep kinds with tied scores
// at several worker counts and requires the reference's decisions.
func TestSweepTiesMatchReference(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		topo := randomMST(t, 9000+seed, 6+int(seed%4)*2)
		opts := Options{Oracle: quantizedOracle{}}
		for _, taps := range []bool{false, true} {
			ref, _, err := referenceGreedy(topo, opts, taps)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 3} {
				run := LDRG
				if taps {
					run = LDRGWithTaps
				}
				got, err := run(topo, withWorkers(opts, workers))
				if err != nil {
					t.Fatal(err)
				}
				matchReference(t, fmt.Sprintf("seed %d taps=%v w%d", seed, taps, workers), ref, got)
			}
		}
		for _, maxW := range []int{3, 2} {
			wopts := WireSizeOptions{MaxWidth: maxW}
			ref, err := referenceWireSize(topo, wopts, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 3} {
				got, err := WireSize(topo, wopts, withWorkers(opts, workers))
				if err != nil {
					t.Fatal(err)
				}
				if g, w := got.Fingerprint(), ref.Fingerprint(); g != w {
					t.Errorf("seed %d maxwidth=%d w%d: widths differ from the reference:\ngot:\n%swant:\n%s", seed, maxW, workers, g, w)
				}
			}
		}
	}
}
