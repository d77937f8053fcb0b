package expt

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"

	"nontree/internal/core"
	"nontree/internal/graph"
	"nontree/internal/mst"
	"nontree/internal/netlist"
	"nontree/internal/obs"
	"nontree/internal/steiner"
)

// BenchSchemaVersion identifies the BENCH_*.json layout. Bump it only when
// a field is renamed or removed; adding fields is backward compatible and
// the schema-regression test in cmd/nontree-bench enforces exactly that
// (every previously emitted key must still be present).
const BenchSchemaVersion = 1

// BenchEntry is one (algorithm, size, trial) cell of the benchmark suite.
// Every field except workers and wall_seconds is deterministic for a fixed
// configuration seed at any Workers value.
type BenchEntry struct {
	Algorithm string `json:"algorithm"`
	Size      int    `json:"size"`
	Trial     int    `json:"trial"`
	// NetSeed is the derived sub-seed the trial's net was generated from.
	NetSeed int64 `json:"net_seed"`
	// Workers echoes the sweep-level worker knob the entry ran with.
	Workers int `json:"workers"`

	// Delay and wirelength of the seed tree and the final routing, with
	// their ratios (final/seed) — the paper's two quality axes.
	SeedDelay  float64 `json:"seed_delay_s"`
	FinalDelay float64 `json:"final_delay_s"`
	DelayRatio float64 `json:"delay_ratio"`
	SeedCost   float64 `json:"seed_wirelength_um"`
	FinalCost  float64 `json:"final_wirelength_um"`
	CostRatio  float64 `json:"cost_ratio"`

	// Accepted counts accepted modifications (edges or widenings);
	// OracleEvaluations is the dominant-cost counter from the run.
	Accepted          int `json:"accepted"`
	OracleEvaluations int `json:"oracle_evaluations"`

	// WallSeconds is the entry's wall-clock time (reporting only — the
	// one field the determinism fingerprint excludes along with workers).
	WallSeconds float64 `json:"wall_seconds"`

	// Counters and Histograms are the entry's deterministic obs snapshot
	// (preregistered catalog, so the key set is schema-stable).
	Counters   map[string]int64                 `json:"counters"`
	Histograms map[string]obs.HistogramSnapshot `json:"histograms"`
}

// BenchAggregate summarizes one algorithm across all its entries.
type BenchAggregate struct {
	Entries                int     `json:"entries"`
	MeanDelayRatio         float64 `json:"mean_delay_ratio"`
	MeanCostRatio          float64 `json:"mean_cost_ratio"`
	TotalOracleEvaluations int64   `json:"total_oracle_evaluations"`
	TotalWallSeconds       float64 `json:"total_wall_seconds"`
}

// BenchConfig is the configuration echo embedded in a report.
type BenchConfig struct {
	Sizes         []int   `json:"sizes"`
	Trials        int     `json:"trials"`
	Seed          int64   `json:"seed"`
	SearchOracle  string  `json:"search_oracle"`
	MeasureWith   string  `json:"measure_with"`
	SegmentLength float64 `json:"segment_um"`
	Inductance    bool    `json:"inductance"`
	Workers       int     `json:"workers"`
}

// BenchReport is the machine-readable output of BenchSuite — the schema
// behind BENCH_PR4.json.
type BenchReport struct {
	SchemaVersion int         `json:"schema_version"`
	Config        BenchConfig `json:"config"`
	// Environment stamps non-deterministic provenance (go version, OS,
	// architecture); filled by the command, excluded from fingerprints.
	Environment map[string]string         `json:"environment,omitempty"`
	Entries     []BenchEntry              `json:"entries"`
	Aggregates  map[string]BenchAggregate `json:"aggregates"`
}

// BenchAlgorithms lists the algorithm names a suite covers, in run order.
func BenchAlgorithms() []string {
	names := make([]string, len(benchAlgorithms))
	for i := range benchAlgorithms {
		names[i] = benchAlgorithms[i].name
	}
	return names
}

// benchOutcome is what one algorithm run reports to the suite.
type benchOutcome struct {
	seed, final *graph.Topology
	accepted    int
	evals       int
	// finalWidth carries the width assignment for measurement when the
	// algorithm sized wires (nil = unit widths).
	finalWidth *core.WireSizeResult
}

var benchAlgorithms = []struct {
	name string
	run  func(cfg *Config, net *netlist.Net) (*benchOutcome, error)
}{
	{"ldrg", func(cfg *Config, net *netlist.Net) (*benchOutcome, error) {
		seed, err := mst.Prim(net.Pins)
		if err != nil {
			return nil, err
		}
		res, err := core.LDRG(seed, cfg.ldrgOptions(0))
		if err != nil {
			return nil, err
		}
		return &benchOutcome{seed: seed, final: res.Topology, accepted: len(res.AddedEdges), evals: res.Evaluations}, nil
	}},
	{"sldrg", func(cfg *Config, net *netlist.Net) (*benchOutcome, error) {
		res, err := core.SLDRG(net.Pins, steiner.Options{}, cfg.ldrgOptions(0))
		if err != nil {
			return nil, err
		}
		return &benchOutcome{seed: res.Seed, final: res.Topology, accepted: len(res.AddedEdges), evals: res.Evaluations}, nil
	}},
	{"h1", func(cfg *Config, net *netlist.Net) (*benchOutcome, error) {
		seed, err := mst.Prim(net.Pins)
		if err != nil {
			return nil, err
		}
		res, err := core.H1(seed, cfg.ldrgOptions(2))
		if err != nil {
			return nil, err
		}
		return &benchOutcome{seed: seed, final: res.Topology, accepted: len(res.AddedEdges), evals: res.Evaluations}, nil
	}},
	{"h2", func(cfg *Config, net *netlist.Net) (*benchOutcome, error) {
		seed, err := mst.Prim(net.Pins)
		if err != nil {
			return nil, err
		}
		res, err := core.H2(seed, cfg.Params, cfg.ldrgOptions(1))
		if err != nil {
			return nil, err
		}
		return &benchOutcome{seed: seed, final: res.Topology, accepted: len(res.AddedEdges), evals: res.Evaluations}, nil
	}},
	{"h3", func(cfg *Config, net *netlist.Net) (*benchOutcome, error) {
		seed, err := mst.Prim(net.Pins)
		if err != nil {
			return nil, err
		}
		res, err := core.H3(seed, cfg.Params, cfg.ldrgOptions(1))
		if err != nil {
			return nil, err
		}
		return &benchOutcome{seed: seed, final: res.Topology, accepted: len(res.AddedEdges), evals: res.Evaluations}, nil
	}},
	{"csorg", func(cfg *Config, net *netlist.Net) (*benchOutcome, error) {
		seed, err := mst.Prim(net.Pins)
		if err != nil {
			return nil, err
		}
		alphas := core.UniformCriticality(seed.NumPins())
		res, err := core.CriticalSinkLDRG(seed, alphas, cfg.ldrgOptions(0))
		if err != nil {
			return nil, err
		}
		return &benchOutcome{seed: seed, final: res.Topology, accepted: len(res.AddedEdges), evals: res.Evaluations}, nil
	}},
	{"wsorg", func(cfg *Config, net *netlist.Net) (*benchOutcome, error) {
		seed, err := mst.Prim(net.Pins)
		if err != nil {
			return nil, err
		}
		ws, err := core.WireSize(seed, core.WireSizeOptions{}, cfg.ldrgOptions(0))
		if err != nil {
			return nil, err
		}
		return &benchOutcome{seed: seed, final: seed, accepted: ws.Widenings, evals: ws.Evaluations, finalWidth: ws}, nil
	}},
}

// BenchSuite runs every benchmark algorithm over the configured seeded
// workload and returns the report. Entries appear in deterministic order
// (algorithm catalog × sizes × trials); suite-level parallelism across
// entries never changes any entry's content because each entry gets a
// private metrics registry and a private Config copy. When cfg.Obs is set
// it additionally receives the union of all entries' metrics.
func BenchSuite(cfg Config) (*BenchReport, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}

	type slot struct {
		algo  int
		size  int
		trial int
	}
	var slots []slot
	for a := range benchAlgorithms {
		for _, size := range cfg.Sizes {
			for tr := 0; tr < cfg.Trials; tr++ {
				slots = append(slots, slot{algo: a, size: size, trial: tr})
			}
		}
	}

	entries := make([]BenchEntry, len(slots))
	errs := make([]error, len(slots))

	jobs := make(chan int)
	var wg sync.WaitGroup
	//nontree:allow nondetsource sizes the entry pool only; each entry lands in its own slot with its own registry, so scheduling cannot change report content
	workers := runtime.GOMAXPROCS(0)
	if workers > len(slots) {
		workers = len(slots)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				entries[i], errs[i] = benchEntry(&cfg, benchAlgorithms[slots[i].algo].name,
					benchAlgorithms[slots[i].algo].run, slots[i].size, slots[i].trial)
			}
		}()
	}
	for i := range slots {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("expt: bench %s size %d trial %d: %w",
				benchAlgorithms[slots[i].algo].name, slots[i].size, slots[i].trial, err)
		}
	}

	report := &BenchReport{
		SchemaVersion: BenchSchemaVersion,
		Config: BenchConfig{
			Sizes:         cfg.Sizes,
			Trials:        cfg.Trials,
			Seed:          cfg.Seed,
			SearchOracle:  cfg.SearchOracle,
			MeasureWith:   cfg.MeasureWith,
			SegmentLength: cfg.SegmentLength,
			Inductance:    cfg.Inductance,
			Workers:       cfg.Workers,
		},
		Entries:    entries,
		Aggregates: make(map[string]BenchAggregate, len(benchAlgorithms)),
	}
	for _, e := range entries {
		agg := report.Aggregates[e.Algorithm]
		agg.Entries++
		agg.MeanDelayRatio += e.DelayRatio
		agg.MeanCostRatio += e.CostRatio
		agg.TotalOracleEvaluations += int64(e.OracleEvaluations)
		agg.TotalWallSeconds += e.WallSeconds
		report.Aggregates[e.Algorithm] = agg
	}
	aggNames := make([]string, 0, len(report.Aggregates))
	for name := range report.Aggregates {
		aggNames = append(aggNames, name)
	}
	sort.Strings(aggNames)
	for _, name := range aggNames {
		agg := report.Aggregates[name]
		agg.MeanDelayRatio /= float64(agg.Entries)
		agg.MeanCostRatio /= float64(agg.Entries)
		report.Aggregates[name] = agg
	}
	return report, nil
}

// benchEntry runs one (algorithm, size, trial) cell with a private metrics
// registry and returns the populated entry.
func benchEntry(base *Config, name string, run func(*Config, *netlist.Net) (*benchOutcome, error), size, trial int) (BenchEntry, error) {
	reg := obs.NewRegistry()
	obs.Preregister(reg)
	var rec obs.Recorder = reg
	if base.Obs != nil {
		rec = obs.Multi{reg, base.Obs}
	}
	cfg := *base
	cfg.Obs = rec

	net, err := cfg.netFor(size, trial)
	if err != nil {
		return BenchEntry{}, err
	}
	elapsed := obs.Stopwatch()
	out, err := run(&cfg, net)
	if err != nil {
		return BenchEntry{}, err
	}
	seedDelay, seedCost, err := cfg.Measure(out.seed)
	if err != nil {
		return BenchEntry{}, fmt.Errorf("measuring seed: %w", err)
	}
	finalDelay, finalCost := seedDelay, seedCost
	if out.finalWidth != nil {
		finalDelay, _, err = cfg.measureWidth(out.final, out.finalWidth.WidthFunc())
		if err == nil {
			finalCost = core.MetalArea(out.final, out.finalWidth.Widths)
		}
	} else if out.final != out.seed {
		finalDelay, finalCost, err = cfg.Measure(out.final)
	}
	if err != nil {
		return BenchEntry{}, fmt.Errorf("measuring final: %w", err)
	}
	wall := elapsed()

	snap := reg.Snapshot()
	hists := make(map[string]obs.HistogramSnapshot, len(snap.Histograms))
	for n, h := range snap.Histograms {
		hists[n] = h.Summary()
	}
	return BenchEntry{
		Algorithm:         name,
		Size:              size,
		Trial:             trial,
		NetSeed:           base.Seed*1_000_003 + int64(size)*10_007 + int64(trial),
		Workers:           base.Workers,
		SeedDelay:         seedDelay,
		FinalDelay:        finalDelay,
		DelayRatio:        finalDelay / seedDelay,
		SeedCost:          seedCost,
		FinalCost:         finalCost,
		CostRatio:         finalCost / seedCost,
		Accepted:          out.accepted,
		OracleEvaluations: out.evals,
		WallSeconds:       wall,
		Counters:          snap.Counters,
		Histograms:        hists,
	}, nil
}

// Fingerprint renders the report's deterministic content as canonical
// text: everything except wall times, the Workers echo, and the
// environment stamp. Two runs of the same configuration at different
// Workers values produce byte-identical fingerprints — the observability
// determinism contract (DESIGN.md §10), asserted by the test suite.
func (r *BenchReport) Fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "schema %d\n", r.SchemaVersion)
	fmt.Fprintf(&b, "config sizes=%v trials=%d seed=%d search=%s measure=%s segment=%x inductance=%t\n",
		r.Config.Sizes, r.Config.Trials, r.Config.Seed, r.Config.SearchOracle,
		r.Config.MeasureWith, r.Config.SegmentLength, r.Config.Inductance)
	for _, e := range r.Entries {
		fmt.Fprintf(&b, "entry %s/%d/%d seed_delay=%x final_delay=%x seed_cost=%x final_cost=%x accepted=%d evals=%d\n",
			e.Algorithm, e.Size, e.Trial, e.SeedDelay, e.FinalDelay, e.SeedCost, e.FinalCost,
			e.Accepted, e.OracleEvaluations)
		names := make([]string, 0, len(e.Counters))
		for n := range e.Counters {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(&b, "  counter %s %d\n", n, e.Counters[n])
		}
		names = names[:0]
		for n := range e.Histograms {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			h := e.Histograms[n]
			fmt.Fprintf(&b, "  hist %s count=%d sum=%x min=%x max=%x\n", n, h.Count, h.Sum, h.Min, h.Max)
		}
	}
	names := make([]string, 0, len(r.Aggregates))
	for n := range r.Aggregates {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		a := r.Aggregates[n]
		fmt.Fprintf(&b, "agg %s entries=%d delay=%x cost=%x evals=%d\n",
			n, a.Entries, a.MeanDelayRatio, a.MeanCostRatio, a.TotalOracleEvaluations)
	}
	return b.String()
}

// MetricKeys returns the sorted union of counter and histogram names
// across all entries — the key set the schema-regression check pins.
func (r *BenchReport) MetricKeys() []string {
	set := make(map[string]bool)
	for _, e := range r.Entries {
		for n := range e.Counters {
			set["counter:"+n] = true
		}
		for n := range e.Histograms {
			set["histogram:"+n] = true
		}
	}
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// sanity guard referenced by tests: NaN ratios would poison aggregates.
func (e *BenchEntry) valid() bool {
	return !math.IsNaN(e.DelayRatio) && !math.IsNaN(e.CostRatio)
}
