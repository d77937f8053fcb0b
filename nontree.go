// Package nontree implements non-tree VLSI signal routing after McCoy &
// Robins, "Non-Tree Routing" (DATE 1994): routing topologies that abandon
// the classical tree restriction, adding extra wires to trade capacitance
// for resistance and thereby cut signal propagation delay.
//
// The package is a facade over the internal implementation. A typical
// session:
//
//	net, _ := nontree.GenerateNet(42, 10)      // 10 random pins, n0 = source
//	mstTopo, _ := nontree.MST(net)             // classical seed topology
//	res, _ := nontree.LDRG(mstTopo, nontree.Config{})
//	before, _ := nontree.MeasureDelay(mstTopo, nontree.DefaultParams())
//	after, _ := nontree.MeasureDelay(res.Topology, nontree.DefaultParams())
//	fmt.Printf("max delay %.3g → %.3g ns\n", before.Max*1e9, after.Max*1e9)
//
// Topology constructors: MST, SteinerTree (Iterated 1-Steiner), ERT and
// SERT (Elmore routing trees). Non-tree algorithms: LDRG, SLDRG, H1, H2,
// H3, CriticalSinkLDRG, WireSize, HORG. Delay models: MeasureDelay (the
// SPICE-equivalent transient simulator) and ElmoreDelay (tree or graph).
package nontree

import (
	"errors"
	"fmt"
	"io"

	"nontree/internal/core"
	"nontree/internal/elmore"
	"nontree/internal/embed"
	"nontree/internal/ert"
	"nontree/internal/geom"
	"nontree/internal/graph"
	"nontree/internal/mst"
	"nontree/internal/netlist"
	"nontree/internal/obs"
	"nontree/internal/pdtree"
	"nontree/internal/rc"
	"nontree/internal/spice"
	"nontree/internal/steiner"
	"nontree/internal/trace"
)

// Core types re-exported from the implementation packages.
type (
	// Point is a pin or junction location in the Manhattan plane (µm).
	Point = geom.Point
	// Net is a signal net; Pins[0] is the source.
	Net = netlist.Net
	// Topology is a routing graph over a net's pins (plus Steiner points).
	Topology = graph.Topology
	// Edge is an undirected topology edge by node index.
	Edge = graph.Edge
	// Params is the interconnect technology (driver/wire R, C, L, loads).
	Params = rc.Params
	// Result reports an algorithm run: final topology, added edges, and
	// before/after objective values.
	Result = core.Result
	// SteinerResult additionally carries the Steiner seed tree.
	SteinerResult = core.SLDRGResult
	// WireSizeResult reports a wire-sizing run.
	WireSizeResult = core.WireSizeResult
	// HybridResult reports a HORG run (routing + sizing stages).
	HybridResult = core.HORGResult
	// Recorder receives observability counters and timings from algorithm
	// runs; pass one via Config.Obs. NewMetrics returns the standard
	// implementation.
	Recorder = obs.Recorder
	// Metrics is the concrete thread-safe Recorder; call Snapshot to read
	// its state and Snapshot().Fingerprint() for a canonical rendering of
	// the deterministic sections (see DESIGN.md §10).
	Metrics = obs.Registry
	// MetricsSnapshot is a frozen view of a Metrics recorder.
	MetricsSnapshot = obs.Snapshot
	// Tracer receives structured execution-trace events from algorithm
	// runs; pass one via Config.Trace. NewTraceRing returns the standard
	// ring-buffered implementation.
	Tracer = trace.Tracer
	// TraceEvent is one execution-trace record (canonical JSONL encoding;
	// see DESIGN.md §11).
	TraceEvent = trace.Event
	// TraceRing is the concrete ring-buffered Tracer; call Events to read
	// the retained trace and WriteJSONL to export it.
	TraceRing = trace.Ring
)

// NewMetrics returns an empty metrics recorder for Config.Obs.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// NewTraceRing returns a ring-buffered tracer for Config.Trace retaining
// the last capacity events (capacity <= 0 selects a default).
func NewTraceRing(capacity int) *TraceRing { return trace.NewRing(capacity) }

// TraceFingerprint renders the deterministic projection of a trace as
// canonical JSONL — byte-identical across runs with identical decisions at
// any Config.Workers value (DESIGN.md §11).
func TraceFingerprint(events []TraceEvent) string { return trace.Fingerprint(events) }

// DefaultParams returns the paper's Table 1 technology: 100Ω driver,
// 0.03Ω/µm, 0.352fF/µm, 492fH/µm wire, 15.3fF sink loads, 1V supply —
// representative of a 0.8µ CMOS process.
func DefaultParams() Params { return rc.Default() }

// NewNet builds a net from explicit pin locations (source first).
func NewNet(source Point, sinks ...Point) *Net { return netlist.New(source, sinks...) }

// ReadNetJSON parses and validates a net from its JSON encoding.
func ReadNetJSON(r io.Reader) (*Net, error) { return netlist.ReadJSON(r) }

// ReadNetText parses and validates a net from the line-oriented text
// format ("net <name>" and "pin <x> <y>" directives).
func ReadNetText(r io.Reader) (*Net, error) { return netlist.ReadText(r) }

// GenerateNet returns a reproducible random net: numPins pins drawn
// uniformly from the paper's 10mm × 10mm layout region.
func GenerateNet(seed int64, numPins int) (*Net, error) {
	return netlist.NewGenerator(seed).Generate(numPins)
}

// MST builds the minimum spanning tree over the net under the Manhattan
// metric — the classical routing seed every algorithm in the paper starts
// from.
func MST(net *Net) (*Topology, error) {
	if err := net.Validate(); err != nil {
		return nil, err
	}
	return mst.Prim(net.Pins)
}

// SteinerTree builds a rectilinear Steiner tree over the net with the
// Iterated 1-Steiner heuristic of Kahng and Robins.
func SteinerTree(net *Net) (*Topology, error) {
	if err := net.Validate(); err != nil {
		return nil, err
	}
	return steiner.Tree(net.Pins, steiner.Options{})
}

// ERT builds the Elmore Routing Tree of Boese et al. — the near-optimal
// delay-driven tree baseline.
func ERT(net *Net, p Params) (*Topology, error) {
	if err := net.Validate(); err != nil {
		return nil, err
	}
	return ert.Build(net.Pins, p)
}

// SERT builds the Steiner variant of the Elmore Routing Tree.
func SERT(net *Net, p Params) (*Topology, error) {
	if err := net.Validate(); err != nil {
		return nil, err
	}
	return ert.BuildSteiner(net.Pins, p)
}

// PDTree builds the Prim–Dijkstra cost–radius tradeoff tree with parameter
// c ∈ [0, 1]: c = 0 is the MST, c = 1 the source-rooted star (minimum
// radius) — the Alpert et al. construction the paper cites as related work.
func PDTree(net *Net, c float64) (*Topology, error) {
	if err := net.Validate(); err != nil {
		return nil, err
	}
	return pdtree.Build(net.Pins, c)
}

// BRBC builds the Bounded-Radius Bounded-Cost tree of Cong et al. with
// parameter ε > 0: radius ≤ (1+ε)·R and cost ≤ (1+2/ε)·MST, provably.
func BRBC(net *Net, eps float64) (*Topology, error) {
	if err := net.Validate(); err != nil {
		return nil, err
	}
	return pdtree.BRBC(net.Pins, eps)
}

// Oracle selects the delay model steering the greedy algorithms.
type Oracle int

const (
	// OracleElmore uses the general-graph Elmore model — fast, and accurate
	// enough that it selects nearly the same edges as the simulator.
	OracleElmore Oracle = iota
	// OracleSpice evaluates every candidate with the transient circuit
	// simulator, the paper's reference methodology. Much slower.
	OracleSpice
	// OracleTwoPole uses the second-moment (two-pole Padé) model: one extra
	// linear solve per evaluation buys ≈4× better agreement with the
	// simulator than Elmore.
	OracleTwoPole
)

// Config tunes the non-tree algorithms. Every algorithm minimizes the
// maximum sink delay (the ORG problem) except CriticalSinkLDRG and HORG,
// which take sink criticalities for the weighted CSORG objective. Wire
// widths are WireSize's own: every other algorithm routes at unit width.
type Config struct {
	// Params is the interconnect technology; zero value selects
	// DefaultParams.
	Params Params
	// Oracle selects the steering delay model (default OracleElmore).
	Oracle Oracle
	// MaxAddedEdges bounds the number of extra wires (0 = to convergence).
	MaxAddedEdges int
	// PlanarOnly restricts greedy edge addition to candidates whose
	// rectilinear embedding avoids crossing existing wires — a
	// routability-constrained variant of the paper's algorithms.
	PlanarOnly bool
	// Workers bounds the goroutines scoring candidates concurrently in each
	// full-solve greedy sweep (0 = one per CPU, 1 = a pool of one). With
	// the Elmore oracle the sweeps score candidates incrementally, in one
	// sequential scan, and ignore it. Results and traces are byte-identical
	// for any value — see DESIGN.md §7 on the concurrency model and
	// determinism guarantee.
	Workers int
	// Obs receives counters and timings from the run (nil = discard).
	// Counter and histogram sections are deterministic for a fixed seed
	// at any Workers value; see DESIGN.md §10.
	Obs Recorder
	// Trace receives the structured decision trace of the run (nil =
	// discard): sweep starts, candidate scores, accepted and rejected
	// edges. Deterministic event fields are byte-identical at any Workers
	// value; use NewTraceRing to capture and TraceFingerprint to render.
	// See DESIGN.md §11.
	Trace Tracer
}

func (c Config) params() Params {
	if c.Params == (Params{}) {
		return DefaultParams()
	}
	return c.Params
}

func (c Config) coreOptions() core.Options {
	// The tracer goes to the algorithm layer only: core emits every trace
	// event, so the oracles take none.
	opts := core.Options{MaxAddedEdges: c.MaxAddedEdges, Workers: c.Workers, Obs: c.Obs, Trace: c.Trace}
	switch c.Oracle {
	case OracleSpice:
		opts.Oracle = &core.SpiceOracle{Params: c.params(), Obs: c.Obs}
	case OracleTwoPole:
		opts.Oracle = &core.TwoPoleOracle{Params: c.params(), Obs: c.Obs}
	default:
		opts.Oracle = &core.ElmoreOracle{Params: c.params(), Obs: c.Obs}
	}
	if c.PlanarOnly {
		opts.CandidateFilter = embed.PlanarFilter
	}
	return opts
}

// LDRG runs the Low Delay Routing Graph algorithm: greedily add edges to
// the seed topology (typically an MST or ERT) while delay improves.
func LDRG(seed *Topology, cfg Config) (*Result, error) {
	return core.LDRG(seed, cfg.coreOptions())
}

// LDRGWithTaps generalizes LDRG toward the paper's full SORG formulation:
// each iteration also considers wiring the source to a fresh Steiner point
// on an existing edge (splitting it), so shortcuts can land mid-edge where
// the resistive bottleneck actually is. It strictly enlarges LDRG's
// candidate space and beats it on most nets at the cost of more
// evaluations.
func LDRGWithTaps(seed *Topology, cfg Config) (*Result, error) {
	return core.LDRGWithTaps(seed, cfg.coreOptions())
}

// SLDRG runs the Steiner variant: an Iterated 1-Steiner seed followed by
// greedy edge addition among pins and Steiner points.
func SLDRG(net *Net, cfg Config) (*SteinerResult, error) {
	if err := net.Validate(); err != nil {
		return nil, err
	}
	return core.SLDRG(net.Pins, steiner.Options{}, cfg.coreOptions())
}

// H1 connects the source to the worst-delay sink (measured by the
// configured oracle), keeping the wire only if delay improves; iterable.
func H1(seed *Topology, cfg Config) (*Result, error) {
	return core.H1(seed, cfg.coreOptions())
}

// H2 connects the source to the sink with the longest Elmore delay —
// simulator-free, single application, unconditional.
func H2(seed *Topology, cfg Config) (*Result, error) {
	return core.H2(seed, cfg.params(), cfg.coreOptions())
}

// H3 connects the source to the sink maximizing
// (tree pathlength × Elmore delay) / new-edge length — simulator-free.
func H3(seed *Topology, cfg Config) (*Result, error) {
	return core.H3(seed, cfg.params(), cfg.coreOptions())
}

// CriticalSinkLDRG runs LDRG under the CSORG objective with the given sink
// criticalities (alphas[i] weights sink pin i+1).
func CriticalSinkLDRG(seed *Topology, alphas []float64, cfg Config) (*Result, error) {
	return core.CriticalSinkLDRG(seed, alphas, cfg.coreOptions())
}

// CleanupResult reports a cost-recovery pass (see Cleanup).
type CleanupResult = core.CleanupResult

// Cleanup is the cost-recovery post-pass: after non-tree wires have been
// added, greedily remove original edges whose deletion keeps the net
// connected and degrades the objective by at most slack (relative; 0 =
// strict non-degradation), recovering wirelength.
func Cleanup(t *Topology, slack float64, cfg Config) (*CleanupResult, error) {
	return core.Cleanup(t, slack, cfg.coreOptions())
}

// WireSize greedily optimizes integer wire widths on a fixed topology (the
// WSORG problem), up to maxWidth tracks per wire. It starts every wire at
// unit width and reports the widths it chose in the result; it adds no
// edges, so cfg's MaxAddedEdges and PlanarOnly do not apply.
func WireSize(t *Topology, maxWidth int, cfg Config) (*WireSizeResult, error) {
	return core.WireSize(t, core.WireSizeOptions{MaxWidth: maxWidth}, cfg.coreOptions())
}

// HORG runs the hybrid pipeline — Steiner seed (optional), criticality-
// weighted edge addition, then wire sizing — the paper's most general
// formulation.
func HORG(net *Net, alphas []float64, useSteiner bool, maxWidth int, cfg Config) (*HybridResult, error) {
	if err := net.Validate(); err != nil {
		return nil, err
	}
	return core.HORG(net.Pins, alphas, useSteiner, core.WireSizeOptions{MaxWidth: maxWidth}, cfg.coreOptions())
}

// DelayReport holds measured delays of a topology.
type DelayReport struct {
	// PerSink[i] is the delay (seconds) to sink pin i+1.
	PerSink []float64
	// Max is the worst sink delay — the paper's t(G).
	Max float64
	// Wirelength is the topology cost in µm.
	Wirelength float64
}

// MeasureDelay simulates the topology's step response on the transient
// simulator (distributed RC circuit, 50% threshold) — the package's
// SPICE-equivalent ground-truth measurement.
func MeasureDelay(t *Topology, p Params) (*DelayReport, error) {
	return measureWith(t, &core.SpiceOracle{Params: p})
}

// ElmoreDelay evaluates the topology under the Elmore model (exact Eq. 1
// on trees; transfer-resistance formulation on graphs).
func ElmoreDelay(t *Topology, p Params) (*DelayReport, error) {
	return measureWith(t, &core.ElmoreOracle{Params: p})
}

func measureWith(t *Topology, oracle core.DelayOracle) (*DelayReport, error) {
	if t == nil {
		return nil, errors.New("nontree: nil topology")
	}
	delays, err := oracle.SinkDelays(t, nil)
	if err != nil {
		return nil, fmt.Errorf("nontree: measuring delays: %w", err)
	}
	rep := &DelayReport{Wirelength: t.Cost()}
	for n := 1; n < t.NumPins(); n++ {
		rep.PerSink = append(rep.PerSink, delays[n])
		if delays[n] > rep.Max {
			rep.Max = delays[n]
		}
	}
	return rep, nil
}

// Waveforms simulates the topology and returns the full sink voltage
// waveforms for plotting: sample times and one series per sink pin.
func Waveforms(t *Topology, p Params, horizon float64, samples int) (times []float64, sinks [][]float64, err error) {
	cm, err := rc.BuildCircuit(t, p, rc.BuildOpts{})
	if err != nil {
		return nil, nil, err
	}
	if samples <= 1 {
		samples = 1000
	}
	res, err := spice.Transient(cm.Circuit, spice.TranOpts{
		Step:   horizon / float64(samples),
		Stop:   horizon,
		Record: true,
	})
	if err != nil {
		return nil, nil, err
	}
	for _, node := range cm.SinkNodes {
		sinks = append(sinks, res.V[node])
	}
	return res.Times, sinks, nil
}

// SwitchingEnergy returns the dynamic energy per output transition,
// E = ½·C_total·Vdd² (joules) — the power price of a routing's
// capacitance. Non-tree wires trade energy for delay; this makes the
// third axis of the tradeoff measurable.
func SwitchingEnergy(t *Topology, p Params) (float64, error) {
	return rc.SwitchingEnergy(t, p, nil)
}

// Crossings embeds the topology's wires as rectilinear L-shapes (locally
// optimized orientation) and returns the number of wire crossings — a
// routability indicator for the extra wires non-tree routing adds.
func Crossings(t *Topology) int {
	return embed.Embed(t, embed.Greedy).Crossings()
}

// DelayBounds returns rigorous per-sink bounds on the 50% delay (seconds):
// bounds[i] brackets sink pin i+1's delay as [lower, upper]. The upper
// bound is the Markov bound 2·t_ED; the lower uses the second moment.
func DelayBounds(t *Topology, p Params) (bounds [][2]float64, err error) {
	l, err := rc.Lump(t, p, nil)
	if err != nil {
		return nil, err
	}
	b, err := elmore.Bounds(t, l, 0.5)
	if err != nil {
		return nil, err
	}
	for n := 1; n < t.NumPins(); n++ {
		bounds = append(bounds, [2]float64{b.Lower[n], b.Upper[n]})
	}
	return bounds, nil
}

// MaxSinkElmore is a convenience for the max Elmore sink delay of a
// topology, used pervasively in examples and tests.
func MaxSinkElmore(t *Topology, p Params) (float64, error) {
	l, err := rc.Lump(t, p, nil)
	if err != nil {
		return 0, err
	}
	d, err := elmore.GraphDelays(t, l)
	if err != nil {
		return 0, err
	}
	return elmore.MaxSinkDelay(d, t.NumPins()), nil
}
