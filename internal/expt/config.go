// Package expt is the experiment harness: it regenerates every table and
// figure of the paper's evaluation (Tables 2–7, Figures 1–3 and 5) over
// reproducible random workloads, using the same methodology — uniform
// random nets in a 10mm square, 50 nets per size, delays measured on the
// transient simulator, ratios normalized to the table's baseline
// construction.
package expt

import (
	"fmt"

	"nontree/internal/core"
	"nontree/internal/graph"
	"nontree/internal/netlist"
	"nontree/internal/obs"
	"nontree/internal/rc"
	"nontree/internal/spice"
)

// Oracle names accepted by Config.
const (
	OracleElmore  = "elmore"
	OracleTwoPole = "twopole"
	OracleSpice   = "spice"
)

// Config parameterizes a harness run.
type Config struct {
	// Sizes lists the net sizes (pin counts); the paper uses 5, 10, 20, 30.
	Sizes []int
	// Trials is the number of random nets per size; the paper uses 50.
	Trials int
	// Seed makes workloads reproducible. Each (size, trial) derives its own
	// sub-seed, so changing Trials does not reshuffle earlier nets.
	Seed int64
	// Params is the interconnect technology (paper Table 1 by default).
	Params rc.Params
	// SearchOracle steers the greedy algorithms: OracleSpice is the paper's
	// reference method (SPICE inside the LDRG loop); OracleElmore is the
	// fast graph-Elmore model. Measured table delays always come from the
	// transient simulator regardless (unless MeasureWith overrides).
	SearchOracle string
	// MeasureWith selects the final delay measurement: OracleSpice
	// (default, matching the paper) or OracleElmore for quick runs.
	MeasureWith string
	// SegmentLength is the π-segment length (µm) for measurement circuits.
	SegmentLength float64
	// Inductance includes the Table 1 wire inductance in measurement
	// circuits (the paper lists it among its SPICE parameters).
	Inductance bool
	// Workers bounds the goroutines each greedy sweep uses to evaluate
	// candidates (0 = one per CPU, 1 = a pool of one). Table/figure results
	// are byte-identical for any value; the harness already parallelizes
	// across trials, so per-sweep workers mainly help SPICE-oracle runs
	// where a single net dominates wall clock.
	Workers int
	// Obs receives counters from the algorithms and oracles the harness
	// runs (nil = discard). Deterministic sections of the recorder are
	// byte-identical for fixed Seed at any Workers value.
	Obs obs.Recorder
}

// Default returns the paper's experimental configuration with the Elmore
// search oracle (see DESIGN.md §2 for the fidelity discussion; pass
// SearchOracle: OracleSpice for the paper's exact-but-slow methodology).
func Default() Config {
	return Config{
		Sizes:         []int{5, 10, 20, 30},
		Trials:        50,
		Seed:          1994, // the paper's publication year; any value works
		Params:        rc.Default(),
		SearchOracle:  OracleElmore,
		MeasureWith:   OracleSpice,
		SegmentLength: rc.DefaultMaxSegment,
		// Trial-level parallelism (runTrials) already saturates the machine
		// on the paper's many-small-nets workloads, so sweeps default to one
		// worker here; raise Workers for SPICE-oracle runs where a few
		// large nets dominate.
		Workers: 1,
	}
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if len(c.Sizes) == 0 {
		return fmt.Errorf("expt: no net sizes configured")
	}
	for _, s := range c.Sizes {
		if s < 2 {
			return fmt.Errorf("expt: net size %d below minimum of 2", s)
		}
	}
	if c.Trials < 1 {
		return fmt.Errorf("expt: trials must be at least 1")
	}
	if c.Workers < 0 {
		return fmt.Errorf("expt: workers must be non-negative (0 = one per CPU)")
	}
	switch c.SearchOracle {
	case OracleElmore, OracleTwoPole, OracleSpice:
	default:
		return fmt.Errorf("expt: unknown search oracle %q", c.SearchOracle)
	}
	switch c.MeasureWith {
	case OracleElmore, OracleTwoPole, OracleSpice, "":
	default:
		return fmt.Errorf("expt: unknown measurement oracle %q", c.MeasureWith)
	}
	return c.Params.Validate()
}

// searchOracle instantiates the configured greedy-search oracle.
func (c *Config) searchOracle() core.DelayOracle {
	switch c.SearchOracle {
	case OracleSpice:
		return &core.SpiceOracle{
			Params: c.Params,
			Build:  c.buildOpts(),
			Obs:    c.Obs,
		}
	case OracleTwoPole:
		return &core.TwoPoleOracle{Params: c.Params, Obs: c.Obs}
	default:
		return &core.ElmoreOracle{Params: c.Params, Obs: c.Obs}
	}
}

func (c *Config) buildOpts() rc.BuildOpts {
	return rc.BuildOpts{
		MaxSegmentLength:  c.SegmentLength,
		IncludeInductance: c.Inductance,
	}
}

// measureOracle instantiates the final-measurement oracle.
func (c *Config) measureOracle() core.DelayOracle {
	switch c.MeasureWith {
	case OracleElmore:
		return &core.ElmoreOracle{Params: c.Params, Obs: c.Obs}
	case OracleTwoPole:
		return &core.TwoPoleOracle{Params: c.Params, Obs: c.Obs}
	default:
		return &core.SpiceOracle{Params: c.Params, Build: c.buildOpts(), Measure: spice.DefaultMeasureOpts(), Obs: c.Obs}
	}
}

// Measure returns the simulator-measured maximum sink delay and the
// wirelength cost of a topology — the two quantities every table reports.
func (c *Config) Measure(t *graph.Topology) (delay, cost float64, err error) {
	return c.measureWidth(t, nil)
}

// measureWidth is Measure under an explicit width assignment (nil = unit
// widths); the cost is the plain wirelength either way — wire-sizing
// reports metal area separately.
func (c *Config) measureWidth(t *graph.Topology, width rc.WidthFunc) (delay, cost float64, err error) {
	delays, err := c.measureOracle().SinkDelays(t, width)
	if err != nil {
		return 0, 0, err
	}
	var worst float64
	for n := 1; n < t.NumPins(); n++ {
		if delays[n] > worst {
			worst = delays[n]
		}
	}
	return worst, t.Cost(), nil
}

// netFor deterministically generates the trial-th net of the given size.
// The sub-seed construction isolates each (size, trial) pair so results are
// stable under configuration changes.
func (c *Config) netFor(size, trial int) (*netlist.Net, error) {
	sub := c.Seed*1_000_003 + int64(size)*10_007 + int64(trial)
	gen := netlist.NewGenerator(sub)
	return gen.Generate(size)
}

// ldrgOptions builds the core.Options shared by the table drivers.
func (c *Config) ldrgOptions(maxEdges int) core.Options {
	return core.Options{
		Oracle:        c.searchOracle(),
		MaxAddedEdges: maxEdges,
		Workers:       c.Workers,
		Obs:           c.Obs,
	}
}
