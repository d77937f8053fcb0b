package core

import (
	"errors"
	"fmt"
	"testing"

	"nontree/internal/elmore"
	"nontree/internal/graph"
	"nontree/internal/rc"
	"nontree/internal/trace"
)

// traceOf runs fn against a fresh ring tracer and returns the captured
// events, failing the test on any run or overflow error.
func traceOf(t *testing.T, label string, capacity int, fn func(tr trace.Tracer) error) []trace.Event {
	t.Helper()
	ring := trace.NewRing(capacity)
	if err := fn(ring); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if ring.Dropped() != 0 {
		t.Fatalf("%s: ring dropped %d events; raise the test capacity", label, ring.Dropped())
	}
	return ring.Events()
}

// TestTraceDeterministicAcrossWorkers is the tentpole guarantee of the
// trace subsystem: for a fixed seed, the deterministic projection of the
// trace is byte-identical at any Workers value — including the full
// per-candidate score sequence, not just the accepted edges (DESIGN.md §11).
func TestTraceDeterministicAcrossWorkers(t *testing.T) {
	workerGrid := []int{1, 4, 0} // 0 = one worker per CPU (GOMAXPROCS)

	type run struct {
		name string
		fn   func(tr trace.Tracer, workers int) ([]graph.Edge, error)
	}
	topo := randomMST(t, 712, 12)
	tapTopo := randomMST(t, 455, 9)
	runs := []run{
		{"LDRG", func(tr trace.Tracer, workers int) ([]graph.Edge, error) {
			res, err := LDRG(topo, Options{Oracle: elmoreOracle(), Workers: workers, Trace: tr})
			if err != nil {
				return nil, err
			}
			return res.AddedEdges, nil
		}},
		{"LDRGWithTaps", func(tr trace.Tracer, workers int) ([]graph.Edge, error) {
			_, err := LDRGWithTaps(tapTopo, Options{Oracle: elmoreOracle(), Workers: workers, Trace: tr})
			return nil, err
		}},
		{"WireSize", func(tr trace.Tracer, workers int) ([]graph.Edge, error) {
			_, err := WireSize(topo, WireSizeOptions{MaxWidth: 3}, Options{Oracle: elmoreOracle(), Workers: workers, Trace: tr})
			return nil, err
		}},
	}

	for _, r := range runs {
		var baseline []trace.Event
		var baselineEdges []graph.Edge
		for _, workers := range workerGrid {
			label := fmt.Sprintf("%s/w%d", r.name, workers)
			var edges []graph.Edge
			events := traceOf(t, label, 1<<16, func(tr trace.Tracer) error {
				var err error
				edges, err = r.fn(tr, workers)
				return err
			})
			if len(events) == 0 {
				t.Fatalf("%s: empty trace", label)
			}
			if baseline == nil {
				baseline, baselineEdges = events, edges
				continue
			}
			if drifts := trace.Diff(events, baseline); len(drifts) != 0 {
				t.Errorf("%s drifted from Workers=%d baseline:\n%s",
					label, workerGrid[0], trace.FormatDrifts(drifts))
			}
			if trace.Fingerprint(events) != trace.Fingerprint(baseline) {
				t.Errorf("%s: fingerprint differs from baseline", label)
			}
			for i, e := range edges {
				if e != baselineEdges[i] {
					t.Errorf("%s: accepted edge %d is %v, baseline %v", label, i, e, baselineEdges[i])
				}
			}
		}
	}
}

// TestTraceReplaysAcceptedEdges asserts the replay contract: the accepted-
// edge sequence re-derived from a trace equals Result.AddedEdges exactly.
func TestTraceReplaysAcceptedEdges(t *testing.T) {
	topo := randomMST(t, 712, 12)
	var res *Result
	events := traceOf(t, "LDRG", 1<<16, func(tr trace.Tracer) error {
		var err error
		res, err = LDRG(topo, Options{Oracle: elmoreOracle(), Workers: 4, Trace: tr})
		return err
	})
	accepted := trace.AcceptedEdges(events)
	if len(accepted) != len(res.AddedEdges) {
		t.Fatalf("trace has %d accepted edges, result %d", len(accepted), len(res.AddedEdges))
	}
	for i, a := range accepted {
		want := res.AddedEdges[i]
		if a.U != want.U || a.V != want.V {
			t.Errorf("accepted %d: trace says (%d,%d), result %v", i, a.U, a.V, want)
		}
		if a.After != res.Trace[i+1] {
			t.Errorf("accepted %d: trace objective %g, result %g", i, a.After, res.Trace[i+1])
		}
	}
}

// TestTraceEventShape spot-checks the event grammar of one LDRG run: every
// sweep opens with sweep_start, candidate indices restart per sweep, and a
// converged run ends with an edge_rejected explaining the stop.
func TestTraceEventShape(t *testing.T) {
	topo := randomMST(t, 712, 10)
	events := traceOf(t, "LDRG", 1<<16, func(tr trace.Tracer) error {
		_, err := LDRG(topo, Options{Oracle: elmoreOracle(), Trace: tr})
		return err
	})
	if events[0].Kind != trace.KindSweepStart || events[0].Sweep != 1 {
		t.Fatalf("trace does not open with sweep 1: %+v", events[0])
	}
	last := events[len(events)-1]
	if last.Kind != trace.KindEdgeRejected || last.Reason != trace.ReasonNoImprovement {
		t.Errorf("converged run should end with a no_improvement rejection, got %+v", last)
	}
	sweep, wantIdx := 0, 0
	for _, e := range events {
		if e.Seq == 0 {
			t.Fatalf("event missing seq: %+v", e)
		}
		switch e.Kind {
		case trace.KindSweepStart:
			if e.Sweep != sweep+1 {
				t.Fatalf("sweep numbering jumped from %d to %d", sweep, e.Sweep)
			}
			sweep, wantIdx = e.Sweep, 0
		case trace.KindCandidateScored, trace.KindCandidatePruned:
			// Pruned candidates consume an index exactly like scored ones,
			// so the per-sweep index sequence stays gapless either way.
			if e.Sweep != sweep || e.Index != wantIdx {
				t.Fatalf("candidate out of order in sweep %d: %+v (want index %d)", sweep, e, wantIdx)
			}
			wantIdx++
		}
	}
}

// errCandidate is the failure failingOracle injects.
var errCandidate = errors.New("injected oracle failure")

// failingOracle is an Elmore oracle, without incremental support, that
// fails on exactly the topologies fails selects. Choosing the failure by
// candidate rather than by call count makes it independent of the order
// the pool scores candidates in.
type failingOracle struct {
	fails func(t *graph.Topology, width rc.WidthFunc) bool
}

func (o *failingOracle) Name() string { return "failing" }

func (o *failingOracle) SinkDelays(t *graph.Topology, width rc.WidthFunc) ([]float64, error) {
	if o.fails(t, width) {
		return nil, errCandidate
	}
	return elmoreOracle().SinkDelays(t, width)
}

// TestTraceOnOracleErrorAcrossWorkers pins the failure half of the trace
// contract: a sweep whose oracle fails on one candidate returns the same
// error and leaves byte-identical traces at Workers 1 and 4 — sweep_start
// and no candidate events (DESIGN.md §11).
func TestTraceOnOracleErrorAcrossWorkers(t *testing.T) {
	seed := randomMST(t, 42, 8)
	edge := candidateEdges(seed, &Options{})[10]
	taps := tapCandidates(seed)
	tap := taps[len(taps)/2].point
	widen := seed.Edges()[3]
	runs := []struct {
		name string
		run  func(tr trace.Tracer, workers int) error
	}{
		{"LDRG", func(tr trace.Tracer, workers int) error {
			_, err := LDRG(seed, Options{Workers: workers, Trace: tr, Oracle: &failingOracle{
				fails: func(t *graph.Topology, _ rc.WidthFunc) bool {
					return t.NumEdges() == seed.NumEdges()+1 && t.HasEdge(edge)
				}}})
			return err
		}},
		{"LDRGWithTaps", func(tr trace.Tracer, workers int) error {
			_, err := LDRGWithTaps(seed, Options{Workers: workers, Trace: tr, Oracle: &failingOracle{
				fails: func(t *graph.Topology, _ rc.WidthFunc) bool {
					return t.NumNodes() > seed.NumNodes() && t.Point(t.NumNodes()-1).Eq(tap)
				}}})
			return err
		}},
		{"WireSize", func(tr trace.Tracer, workers int) error {
			_, err := WireSize(seed, WireSizeOptions{MaxWidth: 3}, Options{Workers: workers, Trace: tr, Oracle: &failingOracle{
				fails: func(_ *graph.Topology, width rc.WidthFunc) bool { return width(widen) == 2 }}})
			return err
		}},
	}
	for _, r := range runs {
		var traces, errs [2]string
		for k, workers := range []int{1, 4} {
			ring := trace.NewRing(1 << 16)
			err := r.run(ring, workers)
			if !errors.Is(err, errCandidate) {
				t.Fatalf("%s/w%d: got error %v, want the injected failure", r.name, workers, err)
			}
			traces[k], errs[k] = ring.Fingerprint(), err.Error()
			lastIsSweepStart(t, fmt.Sprintf("%s/w%d", r.name, workers), ring)
		}
		if errs[0] != errs[1] {
			t.Errorf("%s: error at Workers 1 %q, at Workers 4 %q", r.name, errs[0], errs[1])
		}
		if traces[0] != traces[1] {
			t.Errorf("%s: trace differs between Workers 1 and 4:\n%s\nvs\n%s", r.name, traces[0], traces[1])
		}
	}
}

// lastIsSweepStart asserts a failed run's trace ends with the failing
// sweep's sweep_start: the sweep emitted no candidate events.
func lastIsSweepStart(t *testing.T, label string, ring *trace.Ring) {
	t.Helper()
	events := ring.Events()
	if len(events) == 0 || events[len(events)-1].Kind != trace.KindSweepStart {
		t.Errorf("%s: failed sweep left candidate events; trace:\n%s", label, ring.Fingerprint())
	}
}

// failingIncrementalOracle is a failingOracle with incremental support, so
// the candidates are probed incrementally and only the full re-solve of
// the leader reaches Solve and fails.
type failingIncrementalOracle struct{ failingOracle }

func (o *failingIncrementalOracle) NewIncrementalSweep(t *graph.Topology, width rc.WidthFunc) (*elmore.Incremental, error) {
	return elmoreOracle().NewIncrementalSweep(t, width)
}

func (o *failingIncrementalOracle) Solve(t *graph.Topology, width rc.WidthFunc) (*elmore.Solution, error) {
	if o.fails(t, width) {
		return nil, errCandidate
	}
	return elmoreOracle().Solve(t, width)
}

// TestTraceOnResolveError covers the incremental half of the failure
// contract: when the full re-solve of the incremental leader fails, the
// sweep still leaves no candidate events.
func TestTraceOnResolveError(t *testing.T) {
	seed := randomMST(t, 42, 8)
	modified := &failingIncrementalOracle{failingOracle{
		fails: func(t *graph.Topology, width rc.WidthFunc) bool {
			for _, e := range t.Edges() {
				if width != nil && width(e) != 1 {
					return true
				}
			}
			return t.NumEdges() != seed.NumEdges()
		}}}
	runs := map[string]func(tr trace.Tracer) error{
		"LDRG": func(tr trace.Tracer) error {
			_, err := LDRG(seed, Options{Oracle: modified, Trace: tr})
			return err
		},
		"LDRGWithTaps": func(tr trace.Tracer) error {
			_, err := LDRGWithTaps(seed, Options{Oracle: modified, Trace: tr})
			return err
		},
		"WireSize": func(tr trace.Tracer) error {
			_, err := WireSize(seed, WireSizeOptions{MaxWidth: 3}, Options{Oracle: modified, Trace: tr})
			return err
		},
	}
	for name, run := range runs {
		ring := trace.NewRing(1 << 16)
		if err := run(ring); !errors.Is(err, errCandidate) {
			t.Fatalf("%s: got error %v, want the injected failure", name, err)
		}
		lastIsSweepStart(t, name, ring)
	}
}
