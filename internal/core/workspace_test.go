package core

import (
	"fmt"
	"maps"
	"math"
	"runtime"
	"sync"
	"testing"

	"nontree/internal/graph"
	"nontree/internal/obs"
	"nontree/internal/rc"
	"nontree/internal/scratch"
	"nontree/internal/trace"
)

// runRecord is what a run leaves that reusing its storage must not move:
// its decisions, its evaluation count, its trace and its counters.
type runRecord struct {
	fingerprint string
	evals       int
	trace       string
	counters    map[string]int64
}

// routeFunc runs one algorithm under opts and returns its result's
// fingerprint and Evaluations.
type routeFunc func(opts Options) (string, int, error)

func resultOf(res *Result, err error) (string, int, error) {
	if err != nil {
		return "", 0, err
	}
	return res.Fingerprint(), res.Evaluations, nil
}

// recordRun runs fn under an Elmore oracle with a fresh tracer and
// registry.
func recordRun(t *testing.T, label string, fn routeFunc) runRecord {
	t.Helper()
	ring := trace.NewRing(1 << 16)
	reg := obs.NewRegistry()
	fp, evals, err := fn(Options{Oracle: elmoreOracle(), Trace: ring, Obs: reg})
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if ring.Dropped() != 0 {
		t.Fatalf("%s: ring dropped %d events", label, ring.Dropped())
	}
	return runRecord{fp, evals, ring.Fingerprint(), reg.Snapshot().Counters}
}

func (r runRecord) diff(want runRecord) error {
	switch {
	case r.fingerprint != want.fingerprint:
		return fmt.Errorf("fingerprint\n%s\nwant\n%s", r.fingerprint, want.fingerprint)
	case r.evals != want.evals:
		return fmt.Errorf("%d evaluations, want %d", r.evals, want.evals)
	case r.trace != want.trace:
		return fmt.Errorf("trace differs")
	case !maps.Equal(r.counters, want.counters):
		return fmt.Errorf("counters %v, want %v", r.counters, want.counters)
	}
	return nil
}

// withSlots runs fn with s as the runs' workspace slots.
func withSlots(s scratch.Slots[sweepWork], fn func()) {
	saved := sweepScratch
	sweepScratch = s
	defer func() { sweepScratch = saved }()
	fn()
}

// TestReusedWorkspaceMatchesFreshRuns passes one workspace from run to
// run, as a warm daemon does: a taps run that grows its net by a Steiner
// node per accepted tap, then LDRG on a smaller net, then on a larger
// one. Each must match the same run on fresh storage in fingerprint,
// Evaluations, trace and counters, the column cache's hits and misses
// included. The evaluator's epoch count restarts at 1 in every run, and
// the middle run accepts nothing, so it leaves its columns filled in
// epoch 1: a cache validated by the epoch count would serve them to the
// last run's first sweep.
func TestReusedWorkspaceMatchesFreshRuns(t *testing.T) {
	tapSeed, small := randomMST(t, 455, 9), randomMST(t, 460, 7)
	runs := []struct {
		name string
		fn   routeFunc
	}{
		{"taps/9", func(o Options) (string, int, error) { return resultOf(LDRGWithTaps(tapSeed, o)) }},
		{"ldrg/7", func(o Options) (string, int, error) { return resultOf(LDRG(small, o)) }},
		{"ldrg/14", func(o Options) (string, int, error) { return resultOf(LDRG(randomMST(t, 457, 14), o)) }},
	}
	if res, err := LDRGWithTaps(tapSeed, Options{Oracle: elmoreOracle()}); err != nil || res.Topology.NumNodes() <= tapSeed.NumNodes() {
		t.Fatalf("the taps run must grow its net (err %v)", err)
	}
	if res, err := LDRG(small, Options{Oracle: elmoreOracle()}); err != nil || len(res.AddedEdges) != 0 {
		t.Fatalf("the small run must accept nothing (err %v)", err)
	}
	fresh := make([]runRecord, len(runs))
	for i, r := range runs {
		withSlots(scratch.New[sweepWork](), func() { fresh[i] = recordRun(t, r.name, r.fn) })
	}

	// One slot: every run takes the workspace the previous one returned.
	slots := make(scratch.Slots[sweepWork], 1)
	var w *sweepWork
	withSlots(slots, func() {
		for i, r := range runs {
			if err := recordRun(t, r.name, r.fn).diff(fresh[i]); err != nil {
				t.Errorf("%s on reused storage: %v", r.name, err)
			}
			held := slots[0].Load()
			if held == nil || (w != nil && held != w) {
				t.Fatalf("%s did not return the workspace it took", r.name)
			}
			w = held
		}
	})
}

// TestWarmLDRGAllocations bounds what a warm 30-pin LDRG run allocates.
// Its columns, candidate lists and outcome slots come from the workspace
// an earlier run returned, so what is left is the per-epoch full solves,
// the result and the per-sweep closures: about 30 KB. When every epoch
// and sweep allocated its own storage, a 30-pin run took about 99 KB.
func TestWarmLDRGAllocations(t *testing.T) {
	topo := randomMST(t, 3030, 30)
	opts := Options{Oracle: elmoreOracle(), Workers: 1}
	run := func() {
		if _, err := LDRG(topo, opts); err != nil {
			t.Fatal(err)
		}
	}
	withSlots(make(scratch.Slots[sweepWork], 1), func() {
		run()
		const runs, limit = 20, 50 << 10
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			run()
		}
		runtime.ReadMemStats(&after)
		got := (after.TotalAlloc - before.TotalAlloc) / runs
		t.Logf("a warm 30-pin LDRG run allocates %d bytes", got)
		if got > limit {
			t.Errorf("a warm 30-pin LDRG run allocates %d bytes, want at most %d", got, limit)
		}
	})
}

// TestConcurrentRunsShareWorkspaces routes several nets at once through
// the shared workspace slots, with more goroutines than slots, so
// workspaces pass between runs of different sizes and kinds while others
// are in use. Every run must match its serial result. Under -race it
// checks that a workspace is owned by one run between its Get and Put.
func TestConcurrentRunsShareWorkspaces(t *testing.T) {
	type job struct {
		name string
		fn   routeFunc
	}
	var jobs []job
	for i, pins := range []int{6, 9, 12, 15} {
		seed := randomMST(t, int64(700+i), pins)
		jobs = append(jobs,
			job{fmt.Sprintf("ldrg/%d", pins), func(o Options) (string, int, error) { return resultOf(LDRG(seed, o)) }},
			job{fmt.Sprintf("taps/%d", pins), func(o Options) (string, int, error) { return resultOf(LDRGWithTaps(seed, o)) }},
			job{fmt.Sprintf("wiresize/%d", pins), func(o Options) (string, int, error) {
				res, err := WireSize(seed, WireSizeOptions{MaxWidth: 3}, o)
				if err != nil {
					return "", 0, err
				}
				return res.Fingerprint(), res.Evaluations, nil
			}},
		)
	}
	want := make([]runRecord, len(jobs))
	for i, j := range jobs {
		want[i] = recordRun(t, j.name, j.fn)
	}
	const rounds = 3
	var wg sync.WaitGroup
	errs := make(chan error, rounds*len(jobs))
	for r := range rounds {
		for i, j := range jobs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ring := trace.NewRing(1 << 16)
				fp, evals, err := j.fn(Options{Oracle: elmoreOracle(), Trace: ring})
				if err != nil {
					errs <- fmt.Errorf("round %d %s: %w", r, j.name, err)
					return
				}
				if fp != want[i].fingerprint || evals != want[i].evals || ring.Fingerprint() != want[i].trace {
					errs <- fmt.Errorf("round %d %s: differs from its serial run", r, j.name)
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestWarmSpiceMeasurementAllocations checks that a warm SpiceOracle
// measurement allocates only the slices it hands back, the crossings and
// the per-node delays, whatever the net's size: the circuit, the MNA
// system, the factors and the step vectors come from workspaces earlier
// measurements returned. When every measurement built its own, a 30-pin
// one made about 100 allocations (138 KB).
func TestWarmSpiceMeasurementAllocations(t *testing.T) {
	oracle := &SpiceOracle{Params: rc.Default()}
	allocs := map[int]float64{}
	for _, pins := range []int{5, 30} {
		topo := randomMST(t, 1, pins)
		allocs[pins] = testing.AllocsPerRun(10, func() {
			if _, err := oracle.SinkDelays(topo, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	if allocs[5] != allocs[30] || allocs[30] > 3 {
		t.Errorf("a warm measurement makes %v allocations at 5 pins and %v at 30, want the same and at most 3", allocs[5], allocs[30])
	}
}

// TestConcurrentSpiceMeasurementsShareWorkspaces measures nets of
// different sizes, RC and RLC, from more goroutines than there are
// workspace slots, so circuits and simulator workspaces pass between
// measurements of different sizes while others are in use. Every delay
// must match its serial measurement bit for bit. Under -race it checks
// that a workspace is owned by one measurement between its Get and Put.
func TestConcurrentSpiceMeasurementsShareWorkspaces(t *testing.T) {
	type job struct {
		name   string
		oracle *SpiceOracle
		topo   *graph.Topology
	}
	var jobs []job
	for i, pins := range []int{5, 9, 14, 20} {
		topo := randomMST(t, int64(800+i), pins)
		for _, rlc := range []bool{false, true} {
			jobs = append(jobs, job{fmt.Sprintf("%d pins L=%v", pins, rlc),
				&SpiceOracle{Params: rc.Default(), Build: rc.BuildOpts{IncludeInductance: rlc}}, topo})
		}
	}
	want := make([][]float64, len(jobs))
	for i, j := range jobs {
		d, err := j.oracle.SinkDelays(j.topo, nil)
		if err != nil {
			t.Fatalf("%s: %v", j.name, err)
		}
		want[i] = d
	}
	const rounds = 3
	var wg sync.WaitGroup
	errs := make(chan error, rounds*len(jobs))
	for r := range rounds {
		for i, j := range jobs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				d, err := j.oracle.SinkDelays(j.topo, nil)
				if err != nil {
					errs <- fmt.Errorf("round %d %s: %w", r, j.name, err)
					return
				}
				for k := range d {
					if math.Float64bits(d[k]) != math.Float64bits(want[i][k]) {
						errs <- fmt.Errorf("round %d %s: node %d delay %v, serial %v", r, j.name, k, d[k], want[i][k])
						return
					}
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
