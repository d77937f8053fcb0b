package expt

import (
	"fmt"
	"io"

	"nontree/internal/core"
	"nontree/internal/elmore"
	"nontree/internal/embed"
	"nontree/internal/ert"
	"nontree/internal/geom"
	"nontree/internal/graph"
	"nontree/internal/mst"
	"nontree/internal/pdtree"
	"nontree/internal/rc"
	"nontree/internal/stats"
	"nontree/internal/steiner"
)

// This file implements the extension experiments beyond the paper's own
// tables: quantitative results for the Section 5.1 critical-sink (CSORG)
// and Section 5.2 wire-sizing (WSORG) formulations that the paper proposes
// but does not evaluate, plus a construction-frontier comparison placing
// non-tree routing among the cost–radius tradeoff trees of the related
// work it cites.

// measureSinks returns simulator-measured per-sink delays and the cost of
// a topology under an optional width function.
func (c *Config) measureSinks(t *graph.Topology, width rc.WidthFunc) ([]float64, float64, error) {
	delays, err := c.measureOracle().SinkDelays(t, width)
	if err != nil {
		return nil, 0, err
	}
	sinks := make([]float64, 0, t.NumPins()-1)
	for n := 1; n < t.NumPins(); n++ {
		sinks = append(sinks, delays[n])
	}
	return sinks, t.Cost(), nil
}

// CSORG runs the critical-sink extension experiment: on each net, the sink
// with the worst MST Elmore delay is declared critical (as iterative
// timing-driven layout would), and LDRG is run twice — once with the ORG
// objective (max sink delay) and once with the CSORG objective focused on
// the critical sink. The table reports the critical sink's measured delay
// ratio vs the MST under both objectives.
func CSORG(cfg Config) (*Table, error) {
	runBoth := func(size, trial int) (*trialOutcome, *trialOutcome, error) {
		net, err := cfg.netFor(size, trial)
		if err != nil {
			return nil, nil, err
		}
		seed, err := mst.Prim(net.Pins)
		if err != nil {
			return nil, nil, err
		}
		// Critical sink: worst Elmore sink of the MST.
		l := new(rc.Lumped)
		if err := rc.Lump(l, seed, cfg.Params, nil); err != nil {
			return nil, nil, err
		}
		ed, err := elmore.GraphDelays(seed, l)
		if err != nil {
			return nil, nil, err
		}
		critical, _ := elmore.ArgMaxSinkDelay(ed, seed.NumPins())
		alphas, err := core.SingleCriticalSink(seed.NumPins(), critical)
		if err != nil {
			return nil, nil, err
		}

		baseSinks, baseCost, err := cfg.measureSinks(seed, nil)
		if err != nil {
			return nil, nil, err
		}
		measureCritical := func(res *core.Result) (*trialOutcome, error) {
			o := &trialOutcome{baseDelay: baseSinks[critical-1], baseCost: baseCost}
			if len(res.AddedEdges) > 0 {
				sinks, cost, err := cfg.measureSinks(res.Topology, nil)
				if err != nil {
					return nil, err
				}
				o.stageDelay = []float64{sinks[critical-1]}
				o.stageCost = []float64{cost}
			}
			return o, nil
		}

		org, err := core.LDRG(seed, cfg.ldrgOptions(0))
		if err != nil {
			return nil, nil, err
		}
		orgOut, err := measureCritical(org)
		if err != nil {
			return nil, nil, err
		}
		cs, err := core.CriticalSinkLDRG(seed, alphas, cfg.ldrgOptions(0))
		if err != nil {
			return nil, nil, err
		}
		csOut, err := measureCritical(cs)
		if err != nil {
			return nil, nil, err
		}
		return orgOut, csOut, nil
	}

	// runTrials returns one outcome per trial, so pack both variants into
	// the stage slots: stage 0 = ORG result, stage 1 = CSORG result.
	out, err := runTrials(&cfg, func(size, trial int) (*trialOutcome, error) {
		org, cs, err := runBoth(size, trial)
		if err != nil {
			return nil, err
		}
		combined := &trialOutcome{
			baseDelay: org.baseDelay, baseCost: org.baseCost,
		}
		combined.stageDelay = append(combined.stageDelay, stageOr(org, 0), stageOr(cs, 0))
		combined.stageCost = append(combined.stageCost, stageCostOr(org, 0), stageCostOr(cs, 0))
		return combined, nil
	})
	if err != nil {
		return nil, err
	}

	mkSection := func(name string, stage int) Section {
		sec := Section{Name: name}
		for si, size := range cfg.Sizes {
			samples := make([]stats.Sample, 0, cfg.Trials)
			for _, o := range out[si] {
				samples = append(samples, stats.Sample{
					DelayRatio: o.stageDelay[stage] / o.baseDelay,
					CostRatio:  o.stageCost[stage] / o.baseCost,
				})
			}
			sec.Rows = append(sec.Rows, Row{Size: size, Summary: stats.Summarize(samples)})
		}
		return sec
	}
	return &Table{
		ID:       "ext-csorg",
		Title:    "Critical-Sink Routing (Section 5.1) — critical sink delay",
		Baseline: "MST (critical sink)",
		Sections: []Section{
			mkSection("ORG objective (max delay)", 0),
			mkSection("CSORG objective (critical sink)", 1),
		},
	}, nil
}

func stageOr(o *trialOutcome, k int) float64 {
	if k < len(o.stageDelay) {
		return o.stageDelay[k]
	}
	return o.baseDelay
}

func stageCostOr(o *trialOutcome, k int) float64 {
	if k < len(o.stageCost) {
		return o.stageCost[k]
	}
	return o.baseCost
}

// WSORG runs the wire-sizing extension experiment: greedy integer width
// optimization (max width 4) on the MST and on the LDRG routing graph. The
// delay column is the simulator-measured max sink delay with the optimized
// widths, normalized to the unit-width MST; the cost column is metal area
// (width-weighted wirelength) normalized likewise.
func WSORG(cfg Config) (*Table, error) {
	run := func(overLDRG bool) func(size, trial int) (*trialOutcome, error) {
		return func(size, trial int) (*trialOutcome, error) {
			net, err := cfg.netFor(size, trial)
			if err != nil {
				return nil, err
			}
			seed, err := mst.Prim(net.Pins)
			if err != nil {
				return nil, err
			}
			o := &trialOutcome{}
			o.baseDelay, o.baseCost, err = cfg.Measure(seed)
			if err != nil {
				return nil, err
			}

			topo := seed
			if overLDRG {
				res, err := core.LDRG(seed, cfg.ldrgOptions(0))
				if err != nil {
					return nil, err
				}
				topo = res.Topology
			}
			ws, err := core.WireSize(topo, core.WireSizeOptions{MaxWidth: 4}, cfg.ldrgOptions(0))
			if err != nil {
				return nil, err
			}
			sinks, _, err := cfg.measureSinks(topo, ws.WidthFunc())
			if err != nil {
				return nil, err
			}
			worst := 0.0
			for _, d := range sinks {
				if d > worst {
					worst = d
				}
			}
			o.stageDelay = []float64{worst}
			o.stageCost = []float64{core.MetalArea(topo, ws.Widths)}
			return o, nil
		}
	}
	overMST, err := runTrials(&cfg, run(false))
	if err != nil {
		return nil, err
	}
	overLDRG, err := runTrials(&cfg, run(true))
	if err != nil {
		return nil, err
	}
	return &Table{
		ID:       "ext-wsorg",
		Title:    "Wire Sizing (Section 5.2) — greedy integer widths, max 4",
		Baseline: "unit-width MST (cost = metal area)",
		Sections: []Section{
			finalSection(&cfg, overMST, "WSORG over MST"),
			finalSection(&cfg, overLDRG, "WSORG over LDRG graph"),
		},
	}, nil
}

// FrontierEntry is one construction's averaged performance in the frontier
// comparison.
type FrontierEntry struct {
	Name       string
	DelayRatio float64 // vs MST, simulator-measured, averaged
	CostRatio  float64
	// Crossings is the mean wire-crossing count of the construction under
	// a locally optimized rectilinear embedding — tree topologies can
	// usually embed planar, while added non-tree wires may cross.
	Crossings float64
	// EnergyRatio is the mean switching energy (½·C·Vdd²) normalized to
	// the MST — the power price of the construction's capacitance.
	EnergyRatio float64
}

// Frontier compares every construction in the repository on equal terms:
// mean measured delay and cost (normalized to the MST) over random nets of
// one size. It locates non-tree routing on the cost–performance frontier
// alongside the tradeoff trees of the cited related work.
func Frontier(cfg Config, size int) ([]FrontierEntry, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	type builder struct {
		name string
		make func(pins []geomPoint) (*graph.Topology, error)
	}
	builders := []builder{
		{"MST", func(p []geomPoint) (*graph.Topology, error) { return mst.Prim(p) }},
		{"PD-tree c=0.25", func(p []geomPoint) (*graph.Topology, error) { return pdtree.Build(p, 0.25) }},
		{"PD-tree c=0.50", func(p []geomPoint) (*graph.Topology, error) { return pdtree.Build(p, 0.5) }},
		{"PD-tree c=0.75", func(p []geomPoint) (*graph.Topology, error) { return pdtree.Build(p, 0.75) }},
		{"Star (SPT)", func(p []geomPoint) (*graph.Topology, error) { return pdtree.Build(p, 1) }},
		{"BRBC ε=0.5", func(p []geomPoint) (*graph.Topology, error) { return pdtree.BRBC(p, 0.5) }},
		{"Steiner (I1S)", func(p []geomPoint) (*graph.Topology, error) {
			return steiner.Tree(p, steiner.Options{})
		}},
		{"ERT", func(p []geomPoint) (*graph.Topology, error) { return ert.Build(p, cfg.Params) }},
		{"SERT", func(p []geomPoint) (*graph.Topology, error) { return ert.BuildSteiner(p, cfg.Params) }},
		{"H3", func(p []geomPoint) (*graph.Topology, error) {
			seed, err := mst.Prim(p)
			if err != nil {
				return nil, err
			}
			res, err := core.H3(seed, cfg.Params, cfg.ldrgOptions(1))
			if err != nil {
				return nil, err
			}
			return res.Topology, nil
		}},
		{"LDRG", func(p []geomPoint) (*graph.Topology, error) {
			seed, err := mst.Prim(p)
			if err != nil {
				return nil, err
			}
			res, err := core.LDRG(seed, cfg.ldrgOptions(0))
			if err != nil {
				return nil, err
			}
			return res.Topology, nil
		}},
		{"SLDRG", func(p []geomPoint) (*graph.Topology, error) {
			res, err := core.SLDRG(p, steiner.Options{}, cfg.ldrgOptions(0))
			if err != nil {
				return nil, err
			}
			return res.Topology, nil
		}},
		{"ERT+LDRG", func(p []geomPoint) (*graph.Topology, error) {
			seed, err := ert.Build(p, cfg.Params)
			if err != nil {
				return nil, err
			}
			res, err := core.LDRG(seed, cfg.ldrgOptions(0))
			if err != nil {
				return nil, err
			}
			return res.Topology, nil
		}},
	}

	sums := make([]FrontierEntry, len(builders))
	for i := range sums {
		sums[i].Name = builders[i].name
	}
	for trial := 0; trial < cfg.Trials; trial++ {
		net, err := cfg.netFor(size, trial)
		if err != nil {
			return nil, err
		}
		baseline, err := mst.Prim(net.Pins)
		if err != nil {
			return nil, err
		}
		baseDelay, baseCost, err := cfg.Measure(baseline)
		if err != nil {
			return nil, err
		}
		baseEnergy, err := rc.SwitchingEnergy(baseline, cfg.Params, nil)
		if err != nil {
			return nil, err
		}
		for i, b := range builders {
			topo, err := b.make(net.Pins)
			if err != nil {
				return nil, fmt.Errorf("expt: frontier %s: %w", b.name, err)
			}
			d, c, err := cfg.Measure(topo)
			if err != nil {
				return nil, fmt.Errorf("expt: frontier measuring %s: %w", b.name, err)
			}
			sums[i].DelayRatio += d / baseDelay
			sums[i].CostRatio += c / baseCost
			sums[i].Crossings += float64(embed.Embed(topo, embed.Greedy).Crossings())
			energy, err := rc.SwitchingEnergy(topo, cfg.Params, nil)
			if err != nil {
				return nil, err
			}
			sums[i].EnergyRatio += energy / baseEnergy
		}
	}
	for i := range sums {
		sums[i].DelayRatio /= float64(cfg.Trials)
		sums[i].CostRatio /= float64(cfg.Trials)
		sums[i].Crossings /= float64(cfg.Trials)
		sums[i].EnergyRatio /= float64(cfg.Trials)
	}
	return sums, nil
}

// geomPoint abbreviates the pin-slice element type in the builder closures.
type geomPoint = geom.Point

// RenderFrontier writes the frontier comparison as a table.
func RenderFrontier(w io.Writer, entries []FrontierEntry, size, trials int) {
	fmt.Fprintf(w, "frontier — constructions on %d-pin nets, %d trials (normalized to MST)\n", size, trials)
	fmt.Fprintf(w, "  %-16s %10s %10s %10s %10s\n", "construction", "delay", "cost", "energy", "crossings")
	fmt.Fprintf(w, "  %s\n", dashes(60))
	for _, e := range entries {
		fmt.Fprintf(w, "  %-16s %10.3f %10.3f %10.3f %10.1f\n", e.Name, e.DelayRatio, e.CostRatio, e.EnergyRatio, e.Crossings)
	}
}

func dashes(n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = '-'
	}
	return string(b)
}
