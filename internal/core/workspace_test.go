package core

import (
	"fmt"
	"maps"
	"math"
	"runtime"
	"slices"
	"strings"
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

// TestWarmRoutingRunAllocations bounds what warm LDRG, LDRGWithTaps, H1
// and H3 runs allocate beyond their Result's own storage: the final
// topology, the edge and objective lists and the Result itself, measured
// as what copying them allocates. The sweep storage, every full solve,
// the Elmore oracle's calls and the tap candidates' topologies come from
// workspaces earlier runs returned. What is left is the run's engine and
// evaluator, four closures a sweep, and the growth of the result's
// topology and lists as edges and taps are committed, which follows the
// accepted modifications, not the net's size: at most 53 allocations and
// 4.4 KB over the result (taps at 30 pins), within margins of 64 and
// 6 KB at 5 and at 30 pins. When every epoch's full solve allocated its
// own network and factor, a 30-pin LDRG run allocated about 29 KB, some
// 27 KB over its result.
func TestWarmRoutingRunAllocations(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const maxAllocs, maxBytes = 64, 6 << 10
	for _, pins := range []int{5, 30} {
		seed := randomMST(t, 3030, pins)
		opts := Options{Oracle: elmoreOracle(), Workers: 1}
		for _, r := range []struct {
			name string
			run  func() (*Result, error)
		}{
			{"ldrg", func() (*Result, error) { return LDRG(seed, opts) }},
			{"taps", func() (*Result, error) { return LDRGWithTaps(seed, opts) }},
			{"h1", func() (*Result, error) { return H1(seed, opts) }},
			{"h3", func() (*Result, error) { return H3(seed, rc.Default(), opts) }},
		} {
			label := fmt.Sprintf("%s/%d", r.name, pins)
			res, err := r.run()
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			own := func() {
				c := *res
				c.Topology = res.Topology.Clone()
				c.AddedEdges = slices.Clone(res.AddedEdges)
				c.Trace = slices.Clone(res.Trace)
				keptResult = &c
			}
			run := func() {
				if keptResult, err = r.run(); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
			}
			ownAllocs, ownBytes := allocated(own)
			allocs, bytes := allocated(run)
			t.Logf("%s: %d allocations and %d bytes, its result %d and %d", label, allocs, bytes, ownAllocs, ownBytes)
			if allocs > ownAllocs+maxAllocs || bytes > ownBytes+maxBytes {
				t.Errorf("%s: a warm run makes %d allocations of %d bytes, its result %d of %d; want at most %d and %d more",
					label, allocs, bytes, ownAllocs, ownBytes, maxAllocs, maxBytes)
			}
		}
	}
}

// keptResult keeps the measured results reachable, so that no copy is
// optimized away.
var keptResult *Result

// allocated returns the allocations and bytes of one warm call of fn: the
// mean over ten calls after a first that warms every workspace.
func allocated(fn func()) (allocs, bytes uint64) {
	const calls = 10
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range calls {
		fn()
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / calls, (after.TotalAlloc - before.TotalAlloc) / calls
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

// TestConcurrentRoutesAndOracleCallsShareSlots runs routes of every
// kind that takes Elmore storage from shared slots (LDRG, LDRGWithTaps,
// H1 and H3 on nets of 5–30 pins) together with ElmoreOracle.SinkDelays
// calls on trees and on graphs with cycles, with and without widths, from
// more goroutines than there are slots. Sweep workspaces, lumped networks,
// factorizations and tap topologies thus pass between callers of
// different sizes while others hold theirs. Every result must equal its
// serial run bit for bit; under -race the test checks that each is owned
// by one caller between its Get and Put.
func TestConcurrentRoutesAndOracleCallsShareSlots(t *testing.T) {
	oracle := elmoreOracle()
	widths := func(e graph.Edge) float64 { return float64(1 + (e.U+e.V)%3) }
	type job struct {
		name string
		run  func() (string, error)
	}
	var jobs []job
	for i, pins := range []int{5, 12, 21, 30} {
		seed := randomMST(t, int64(900+i), pins)
		route := func(fn func() (*Result, error)) func() (string, error) {
			return func() (string, error) {
				res, err := fn()
				if err != nil {
					return "", err
				}
				return fmt.Sprintf("%s evals=%d", res.Fingerprint(), res.Evaluations), nil
			}
		}
		opts := Options{Oracle: oracle, Workers: 1}
		graphTopo := seed.Clone()
		for _, e := range graphTopo.AbsentEdges()[:pins/3] {
			if err := graphTopo.AddEdge(e); err != nil {
				t.Fatal(err)
			}
		}
		delays := func(topo *graph.Topology, width rc.WidthFunc) func() (string, error) {
			return func() (string, error) {
				d, err := oracle.SinkDelays(topo, width)
				if err != nil {
					return "", err
				}
				var b strings.Builder
				for _, v := range d {
					fmt.Fprintf(&b, "%x ", math.Float64bits(v))
				}
				return b.String(), nil
			}
		}
		jobs = append(jobs,
			job{fmt.Sprintf("ldrg/%d", pins), route(func() (*Result, error) { return LDRG(seed, opts) })},
			job{fmt.Sprintf("taps/%d", pins), route(func() (*Result, error) { return LDRGWithTaps(seed, opts) })},
			job{fmt.Sprintf("h1/%d", pins), route(func() (*Result, error) { return H1(seed, opts) })},
			job{fmt.Sprintf("h3/%d", pins), route(func() (*Result, error) { return H3(seed, rc.Default(), opts) })},
			job{fmt.Sprintf("delays/tree/%d", pins), delays(seed, nil)},
			job{fmt.Sprintf("delays/graph/%d", pins), delays(graphTopo, widths)},
		)
	}
	want := make([]string, len(jobs))
	for i, j := range jobs {
		got, err := j.run()
		if err != nil {
			t.Fatalf("%s: %v", j.name, err)
		}
		want[i] = got
	}
	const rounds = 3
	var wg sync.WaitGroup
	errs := make(chan error, rounds*len(jobs))
	for r := range rounds {
		for i, j := range jobs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, err := j.run()
				switch {
				case err != nil:
					errs <- fmt.Errorf("round %d %s: %w", r, j.name, err)
				case got != want[i]:
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
