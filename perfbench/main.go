// Command perfbench is the repository benchmark. One invocation runs one
// closed-loop workload against the routing library inside this process,
// checks every output against a reference, and prints the workload's
// metrics. LAYERS.md lists the workloads, the metrics, and which layer
// should move which end-to-end metric.
//
// Run it from the repository root through run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload route-closed --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end set, measured untraced; with --trace 1 they are the
// per-layer set of a traced run, whose spans are also written under
// .bench_build/traces. The exit code is 1 when an op failed or mismatched
// its reference, and 2 when the arguments or the set-up are bad.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"time"

	"nontree/internal/obs"
)

// setUpRepeats is how many times an untraced run sets its workload up;
// setup_s is the median, so one slow set-up does not move it.
const setUpRepeats = 3

// workload is one benchmark workload. All are closed loops: a client sends
// its next op only when its previous one has completed.
type workload struct {
	name    string
	clients int
	// setUp generates the seeded op list and everything the timed passes
	// need, computes the reference results, and warms up.
	setUp func(seed int64) (runner, error)
}

// The op-list sizes make one pass take about eight seconds on two cores
// (route-closed about six), so that a 25-second run makes three or more
// passes to take medians over, and each pass still spans enough nets that
// the seed moves the metrics little.
var workloads = []workload{
	{"route-closed", routeClients, func(seed int64) (runner, error) {
		l, err := routeClosedOps(seed, 32, 2400)
		if err != nil {
			return nil, err
		}
		return newRouteClosed(l, 100)
	}},
	{"paper-eval", 1, func(seed int64) (runner, error) {
		l, err := cellOps(seed, paperSizes, paperAlgos, 36)
		if err != nil {
			return nil, err
		}
		return newCompute(l, true, len(paperSizes)*len(paperAlgos))
	}},
	// large-net is run by hand: across seeds its work varies more than
	// BENCHMARK.json's bounds allow (LAYERS.md).
	{"large-net", 1, func(seed int64) (runner, error) {
		l, err := cellOps(seed, largeSizes, []string{"ldrg"}, 13)
		if err != nil {
			return nil, err
		}
		return newCompute(l, false, len(largeSizes))
	}},
}

// runner replays one workload's op list.
type runner interface {
	// pass replays the whole op list once, in passOrder(p), recording
	// spans and layer observations into tr when tr is not nil.
	pass(p int, tr *tracer) passResult
	// quality returns the mean final/seed delay and wirelength ratios over
	// the op list.
	quality() (delay, cost float64)
	// registries returns the obs registries the program records into
	// during traced passes: search gets the core and Elmore metrics,
	// measure the SPICE metrics. Either may be nil.
	registries() (search, measure *obs.Registry)
}

// passResult is what one pass over an op list produced.
type passResult struct {
	lat    []float64 // each op's latency in ms, by op index
	failed int       // ops that failed or mismatched their reference
	err    error     // the first failure, for the report
}

// collect counts the failures among one pass's per-op errors.
func collect(lat []float64, errs []error) passResult {
	p := passResult{lat: lat}
	for _, err := range errs {
		if err != nil {
			p.failed++
			if p.err == nil {
				p.err = err
			}
		}
	}
	return p
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], workloads, os.Stdout, os.Stderr))
}

func run(args []string, all []workload, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: route-closed, paper-eval or large-net")
	seed := fs.Int64("seed", 1, "seed the op list is generated from")
	seconds := fs.Float64("seconds", 25, "how long the timed passes run, in seconds")
	traced := fs.Int("trace", 0, "1 reports the per-layer metrics of a traced run, 0 the end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range all {
		if all[i].name == *name {
			w = &all[i]
		}
	}
	if w == nil || (*traced != 0 && *traced != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "perfbench: want --workload route-closed|paper-eval|large-net --seed N --seconds S --trace 0|1")
		return 2
	}
	measure := endToEnd
	if *traced == 1 {
		measure = layered
	}
	res, err := measure(*w, *seed, *seconds, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 2
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// endToEnd sets the workload up setUpRepeats times, replays the op list
// untraced for the given seconds, and reports the end-to-end metrics.
func endToEnd(w workload, seed int64, seconds float64, out io.Writer) (result, error) {
	setups := make([]float64, setUpRepeats)
	var r runner
	for i := range setups {
		start := time.Now()
		var err error
		if r, err = w.setUp(seed); err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		runtime.GC()
		setups[i] = time.Since(start).Seconds()
	}
	st := replay(r, seconds, nil)
	st.report(out, w, seed, "untraced")
	lat := st.opLatencies()
	level := tailLevel(len(lat))
	tail := quantile(lat, level)
	fmt.Fprintf(out, "perfbench: latency_tail_ms is p%.2f of %d op latencies, each the median of %d passes; %d beyond it\n",
		100*level, len(lat), len(st.passes), countAbove(lat, tail))
	delay, cost := r.quality()
	return result{
		Correct:   st.failed == 0,
		Attempted: st.ops(),
		Failed:    st.failed,
		Metrics: map[string]metric{
			"setup_s":         {quantile(setups, 0.5), "s"},
			"ops_per_s":       {st.opsPerS(w.clients), "1/s"},
			"latency_p50_ms":  {quantile(lat, 0.5), "ms"},
			"latency_tail_ms": {tail, "ms"},
			"alloc_mb_per_op": {float64(st.allocBytes) / 1e6 / float64(st.ops()), "MB"},
			"delay_ratio":     {delay, "ratio"},
			"cost_ratio":      {cost, "ratio"},
		},
	}, nil
}

// layered sets the workload up once, replays it untraced and then traced
// for half the seconds each, and reports the traced half's per-layer
// metrics plus the tracing overhead. The spans and metrics are written to
// .bench_build/traces.
func layered(w workload, seed int64, seconds float64, out io.Writer) (result, error) {
	r, err := w.setUp(seed)
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	runtime.GC()
	plain := replay(r, seconds/2, nil)
	plain.report(out, w, seed, "untraced")
	search, measure := r.registries()
	s0, m0 := snapshot(search), snapshot(measure)
	tr := newTracer()
	traced := replay(r, seconds/2, tr)
	traced.report(out, w, seed, "traced")
	metrics := layerMetrics(window{s0, snapshot(search)}, window{m0, snapshot(measure)}, tr, traced)
	metrics["trace_overhead_ratio"] = metric{traced.opsPerS(w.clients) / plain.opsPerS(w.clients), "ratio"}
	path, err := tr.write(w.name, seed, metrics)
	if err != nil {
		return result{}, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(out, "perfbench: spans and per-layer metrics written to %s\n", path)
	failed := plain.failed + traced.failed
	return result{
		Correct:   failed == 0,
		Attempted: plain.ops() + traced.ops(),
		Failed:    failed,
		Metrics:   metrics,
	}, nil
}

// phaseStats is what a run of whole passes measured.
type phaseStats struct {
	passes     [][]float64 // each pass's per-op latencies in ms
	secs       float64     // wall time of all passes
	failed     int
	err        error // the first failure, for the report
	allocBytes uint64
	gcCycles   uint32
	gcPauseNs  uint64
}

// replay runs whole passes over r's op list, at least one, and starts
// another only while at least half of it fits in the budget (seconds).
func replay(r runner, budget float64, tr *tracer) phaseStats {
	var st phaseStats
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for {
		tr.setPass(len(st.passes))
		start := time.Now()
		p := r.pass(len(st.passes), tr)
		st.secs += time.Since(start).Seconds()
		st.passes = append(st.passes, p.lat)
		st.failed += p.failed
		if st.err == nil {
			st.err = p.err
		}
		if st.secs+0.5*st.secs/float64(len(st.passes)) >= budget {
			break
		}
	}
	runtime.ReadMemStats(&after)
	st.allocBytes = after.TotalAlloc - before.TotalAlloc
	st.gcCycles = after.NumGC - before.NumGC
	st.gcPauseNs = after.PauseTotalNs - before.PauseTotalNs
	return st
}

// ops is the number of ops the phase ran.
func (st phaseStats) ops() int { return len(st.passes) * len(st.passes[0]) }

// opsPerS is the closed loop's throughput by Little's law: clients over the
// mean op latency, taking each op's latency as its median over the passes.
func (st phaseStats) opsPerS(clients int) float64 {
	var sum float64
	lat := st.opLatencies()
	for _, l := range lat {
		sum += l
	}
	return float64(clients) * 1e3 * float64(len(lat)) / sum
}

// opLatencies returns each op's median latency over the passes. The host's
// speed drifts in spells of several seconds; passes visit the ops in
// different orders, so a spell slows an op in few of its passes and the
// median drops those.
func (st phaseStats) opLatencies() []float64 {
	out := make([]float64, len(st.passes[0]))
	for i := range out {
		xs := make([]float64, len(st.passes))
		for p, lat := range st.passes {
			xs[p] = lat[i]
		}
		out[i] = quantile(xs, 0.5)
	}
	return out
}

// report prints the phase's shape and its failures; failed_ratio is the
// JSON line's failed over attempted.
func (st phaseStats) report(out io.Writer, w workload, seed int64, mode string) {
	fmt.Fprintf(out, "perfbench: %s seed %d %s: closed loop, %d client(s), %d passes of %d ops in %.3f s; failed_ratio %g\n",
		w.name, seed, mode, w.clients, len(st.passes), len(st.passes[0]), st.secs,
		float64(st.failed)/float64(st.ops()))
	if st.err != nil {
		fmt.Fprintf(out, "perfbench: first failure: %v\n", st.err)
	}
}

// passOrder is the order in which pass p visits n ops: pass 0 in op order,
// later passes in a fixed shuffle of consecutive blocks of block ops.
func passOrder(n, block, p int) []int {
	blocks := make([]int, (n+block-1)/block)
	for b := range blocks {
		blocks[b] = b
	}
	if p > 0 {
		rand.New(rand.NewSource(int64(p))).Shuffle(len(blocks), func(i, j int) { blocks[i], blocks[j] = blocks[j], blocks[i] })
	}
	order := make([]int, 0, n)
	for _, b := range blocks {
		for i := b * block; i < min(n, (b+1)*block); i++ {
			order = append(order, i)
		}
	}
	return order
}

// quantile is the q-quantile of xs, interpolating between order statistics.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// tailLevel is the highest quantile with at least ten of n op latencies
// beyond it, and at least the median.
func tailLevel(n int) float64 {
	return max(0.5, 1-10/float64(n))
}

func countAbove(xs []float64, v float64) int {
	n := 0
	for _, x := range xs {
		if x > v {
			n++
		}
	}
	return n
}

func msSince(start time.Time) float64 { return float64(time.Since(start)) / 1e6 }
