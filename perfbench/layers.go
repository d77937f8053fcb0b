package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"nontree/internal/obs"
)

// tracer keeps a traced run's spans and per-layer observations in memory;
// write saves them when the run ends. A nil *tracer records nothing, so
// untraced passes run the same code.
type tracer struct {
	start time.Time
	mu    sync.Mutex
	pass  int
	spans []span
	tally map[string]*tally
}

// span is one call the benchmark timed around a layer. Spans of one op
// share pass and op; parent names the span enclosing this one.
type span struct {
	Pass   int     `json:"pass"`
	Op     int     `json:"op"`
	Name   string  `json:"name"`
	Parent string  `json:"parent,omitempty"`
	StartS float64 `json:"start_s"`
	DurS   float64 `json:"dur_s"`
}

// tally sums the values observed under one name.
type tally struct {
	sum float64
	n   int
}

func newTracer() *tracer {
	return &tracer{start: time.Now(), tally: make(map[string]*tally)}
}

func (tr *tracer) setPass(p int) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.pass = p
}

// span records a span that began at start and ends now, and tallies its
// duration in ms under its name.
func (tr *tracer) span(op int, name, parent string, start time.Time) {
	if tr == nil {
		return
	}
	d := time.Since(start)
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.spans = append(tr.spans, span{Pass: tr.pass, Op: op, Name: name, Parent: parent,
		StartS: start.Sub(tr.start).Seconds(), DurS: d.Seconds()})
	tr.add(name, float64(d)/1e6)
}

// observe tallies one value under name.
func (tr *tracer) observe(name string, v float64) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.add(name, v)
}

// add needs tr.mu held.
func (tr *tracer) add(name string, v float64) {
	t := tr.tally[name]
	if t == nil {
		t = &tally{}
		tr.tally[name] = t
	}
	t.sum += v
	t.n++
}

func (tr *tracer) get(name string) tally {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if t := tr.tally[name]; t != nil {
		return *t
	}
	return tally{}
}

func (t tally) mean() float64 {
	if t.n == 0 {
		return 0
	}
	return t.sum / float64(t.n)
}

// write saves the spans and the per-layer metrics as one JSON file under
// .bench_build/traces and returns its path.
func (tr *tracer) write(workload string, seed int64, metrics map[string]metric) (string, error) {
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	b, err := json.Marshal(struct {
		Workload string            `json:"workload"`
		Seed     int64             `json:"seed"`
		Metrics  map[string]metric `json:"metrics"`
		Spans    []span            `json:"spans"`
	}{workload, seed, metrics, tr.spans})
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	return path, os.WriteFile(path, b, 0o644)
}

// window is what one registry recorded between two snapshots.
type window struct{ before, after obs.Snapshot }

func snapshot(g *obs.Registry) obs.Snapshot {
	if g == nil {
		return obs.Snapshot{}
	}
	return g.Snapshot()
}

func (w window) count(name string) float64 {
	return float64(w.after.Counters[name] - w.before.Counters[name])
}

// timing returns the sum, in ms, and the number of the named timing's
// samples.
func (w window) timing(name string) (sumMs float64, n int64) {
	a, b := w.after.Timings[name], w.before.Timings[name]
	return (a.Sum - b.Sum) * 1e3, a.Count - b.Count
}

// countMetrics are the per-layer metrics computed only from the program's
// deterministic obs counters and reply fields: for one seed they repeat
// bit for bit from run to run, however many passes a run fits.
var countMetrics = []string{
	"serve.trace_events_per_op",
	"core.sweeps_per_op",
	"core.candidates_per_op",
	"core.pruned_ratio",
	"core.accepted_per_op",
	"core.oracle_evals_per_op",
	"elmore.incremental_evals_per_op",
	"elmore.cache_hit_ratio",
	"elmore.factorizations_per_op",
	"elmore.solves_per_op",
	"spice.tran_runs_per_op",
	"spice.tran_steps_per_op",
	"spice.mna_factorizations_per_op",
	"spice.measure_retries_per_op",
}

// layerMetrics derives the per-layer metrics of a traced phase from the
// search and measure registries' windows, the tracer's tallies and the
// phase's runtime statistics. A layer a workload never reaches reads 0.
// "_ms" metrics are mean milliseconds per call of that layer; "_per_op"
// metrics are totals over the phase's ops.
func layerMetrics(search, measure window, tr *tracer, st phaseStats) map[string]metric {
	ops := float64(st.ops())
	perOp := func(w window, name string) metric { return metric{w.count(name) / ops, "1/op"} }
	ratio := func(a, b float64) metric {
		if b == 0 {
			return metric{0, "ratio"}
		}
		return metric{a / b, "ratio"}
	}
	ms := func(name string) metric { return metric{tr.get(name).mean(), "ms"} }
	timingMs := func(w window, name string) metric {
		sum, n := w.timing(name)
		if n == 0 {
			return metric{0, "ms"}
		}
		return metric{sum / float64(n), "ms"}
	}

	route := ms("core.route")
	if tr.get("core.route").n == 0 {
		// route-closed routes inside the server, where the benchmark
		// cannot wrap the call: take the server's own sweep time per op.
		sum, _ := search.timing(obs.TimeSweep)
		route = metric{sum / ops, "ms"}
	}
	hits, misses := search.count(obs.CtrIncrementalHits), search.count(obs.CtrIncrementalMisses)
	return map[string]metric{
		"serve.queue_ms":            ms("serve.queue"),
		"serve.decode_ms":           ms("serve.decode"),
		"serve.sweep_ms":            ms("serve.sweep"),
		"serve.oracle_ms":           ms("serve.oracle"),
		"serve.store_ms":            ms("serve.store"),
		"serve.reply_ms":            ms("serve.reply"),
		"serve.read_ms":             ms("read"),
		"serve.trace_events_per_op": {tr.get("serve.trace_events").sum / ops, "1/op"},

		"runtime.gc_cycles_per_op":   {float64(st.gcCycles) / ops, "1/op"},
		"runtime.gc_pause_ms_per_op": {float64(st.gcPauseNs) / 1e6 / ops, "ms/op"},

		"core.route_ms":            route,
		"core.sweeps_per_op":       perOp(search, obs.CtrSweeps),
		"core.candidates_per_op":   perOp(search, obs.CtrSweepCandidates),
		"core.pruned_ratio":        ratio(search.count(obs.CtrCandidatesPruned), search.count(obs.CtrSweepCandidates)),
		"core.accepted_per_op":     perOp(search, obs.CtrAcceptedEdges),
		"core.oracle_evals_per_op": perOp(search, obs.CtrOracleEvaluations),

		"elmore.incremental_evals_per_op": perOp(search, obs.CtrIncrementalEvals),
		"elmore.cache_hit_ratio":          ratio(hits, hits+misses),
		"elmore.factorizations_per_op":    perOp(search, obs.CtrIncrementalFactorizations),
		"elmore.solves_per_op":            perOp(search, obs.CtrElmoreSolves),
		"elmore.full_solve_ms":            timingMs(search, obs.TimeOracleSeconds),

		"spice.measure_ms":                ms("spice.measure"),
		"spice.tran_runs_per_op":          perOp(measure, obs.CtrTranRuns),
		"spice.tran_steps_per_op":         perOp(measure, obs.CtrTranSteps),
		"spice.mna_factorizations_per_op": perOp(measure, obs.CtrMNAFactorizations),
		"spice.measure_retries_per_op":    perOp(measure, obs.CtrMeasureRetries),

		"steiner.seed_ms": ms("steiner.seed"),
		"mst.seed_ms":     ms("mst.seed"),
	}
}
