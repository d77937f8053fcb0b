// Benchmarks regenerating every table and figure of the paper's evaluation,
// plus the ablations called out in DESIGN.md and micro-benchmarks of the
// individual engines.
//
//	go test -bench=Table -benchmem        # Tables 2–7 (reduced trials)
//	go test -bench=Figure                 # Figures 1, 2, 3, 5
//	go test -bench=Ablation               # design-choice ablations
//	go test -bench=. -benchtrials 50      # full paper configuration
//
// Each table benchmark prints the reproduced rows once (first iteration),
// so `go test -bench=. | tee bench_output.txt` records the whole evaluation.
package nontree_test

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"
	"testing"

	"nontree"
	"nontree/internal/core"
	"nontree/internal/elmore"
	"nontree/internal/expt"
	"nontree/internal/mst"
	"nontree/internal/rc"
	"nontree/internal/spice"
	"nontree/internal/stats"
	"nontree/internal/trace"
)

var benchTrials = flag.Int("benchtrials", 10, "trials per net size in table benchmarks (paper: 50)")

func benchConfig() expt.Config {
	cfg := expt.Default()
	cfg.Trials = *benchTrials
	return cfg
}

var printOnce sync.Map

// printFirst emits s the first time key is seen, so repeated benchmark
// iterations don't spam the log.
func printFirst(key, s string) {
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		fmt.Fprint(os.Stdout, s)
	}
}

func benchTable(b *testing.B, name string, fn func(expt.Config) (*expt.Table, error)) {
	b.Helper()
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		t, err := fn(cfg)
		if err != nil {
			b.Fatal(err)
		}
		var sb writerBuffer
		t.Render(&sb)
		printFirst(name, "\n"+sb.String())
	}
}

func benchFigure(b *testing.B, name string, fn func(expt.Config) (*expt.Figure, error)) {
	b.Helper()
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		f, err := fn(cfg)
		if err != nil {
			b.Fatal(err)
		}
		var sb writerBuffer
		f.Render(&sb)
		printFirst(name, "\n"+sb.String())
	}
}

type writerBuffer struct{ data []byte }

func (w *writerBuffer) Write(p []byte) (int, error) {
	w.data = append(w.data, p...)
	return len(p), nil
}
func (w *writerBuffer) String() string { return string(w.data) }

// --- Paper tables ---

func BenchmarkTable2(b *testing.B) { benchTable(b, "table2", expt.Table2) }
func BenchmarkTable3(b *testing.B) { benchTable(b, "table3", expt.Table3) }
func BenchmarkTable4(b *testing.B) { benchTable(b, "table4", expt.Table4) }
func BenchmarkTable5(b *testing.B) { benchTable(b, "table5", expt.Table5) }
func BenchmarkTable6(b *testing.B) { benchTable(b, "table6", expt.Table6) }
func BenchmarkTable7(b *testing.B) { benchTable(b, "table7", expt.Table7) }

// --- Paper figures ---

func BenchmarkFigure1(b *testing.B) { benchFigure(b, "figure1", expt.Figure1) }
func BenchmarkFigure2(b *testing.B) { benchFigure(b, "figure2", expt.Figure2) }
func BenchmarkFigure3(b *testing.B) { benchFigure(b, "figure3", expt.Figure3) }
func BenchmarkFigure5(b *testing.B) { benchFigure(b, "figure5", expt.Figure5) }

// --- Extension experiments (Sections 5.1–5.3, not tabulated in the paper) ---

func BenchmarkExtCSORG(b *testing.B) { benchTable(b, "ext-csorg", expt.CSORG) }
func BenchmarkExtWSORG(b *testing.B) { benchTable(b, "ext-wsorg", expt.WSORG) }

// BenchmarkExtTiming quantifies the Section 5.1 workflow end to end:
// random multi-net designs, STA, and iterative criticality-weighted
// re-routing of critical nets.
func BenchmarkExtTiming(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res, err := expt.Timing(cfg, 6, 4, 10)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var sb writerBuffer
			res.Render(&sb)
			printFirst("ext-timing", "\n"+sb.String())
		}
		b.ReportMetric(res.MeanClockRatio, "clock-ratio")
	}
}

// BenchmarkExtFrontier places every construction (tradeoff trees, Steiner,
// ERT/SERT, and the non-tree routings) on the delay/cost frontier.
func BenchmarkExtFrontier(b *testing.B) {
	cfg := benchConfig()
	size := cfg.Sizes[len(cfg.Sizes)-1]
	for i := 0; i < b.N; i++ {
		entries, err := expt.Frontier(cfg, size)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var sb writerBuffer
			expt.RenderFrontier(&sb, entries, size, cfg.Trials)
			printFirst("frontier", "\n"+sb.String())
		}
	}
}

// --- Ablations ---

// BenchmarkAblationOracle quantifies DESIGN.md's oracle substitution: LDRG
// steered by graph-Elmore versus by the transient simulator, on identical
// nets, comparing the simulator-measured outcome of both.
func BenchmarkAblationOracle(b *testing.B) {
	params := rc.Default()
	const pins, nets = 10, 5
	for i := 0; i < b.N; i++ {
		agree, deltaSum := 0, 0.0
		for seed := int64(0); seed < nets; seed++ {
			net, err := nontree.GenerateNet(seed, pins)
			if err != nil {
				b.Fatal(err)
			}
			seedTopo, err := mst.Prim(net.Pins)
			if err != nil {
				b.Fatal(err)
			}
			resE, err := core.LDRG(seedTopo, core.Options{
				Oracle: &core.ElmoreOracle{Params: params}, MaxAddedEdges: 1})
			if err != nil {
				b.Fatal(err)
			}
			resS, err := core.LDRG(seedTopo, core.Options{
				Oracle: &core.SpiceOracle{Params: params}, MaxAddedEdges: 1})
			if err != nil {
				b.Fatal(err)
			}
			sameEdge := len(resE.AddedEdges) == len(resS.AddedEdges) &&
				(len(resE.AddedEdges) == 0 || resE.AddedEdges[0] == resS.AddedEdges[0])
			if sameEdge {
				agree++
			}
			me, err := nontree.MeasureDelay(resE.Topology, params)
			if err != nil {
				b.Fatal(err)
			}
			ms, err := nontree.MeasureDelay(resS.Topology, params)
			if err != nil {
				b.Fatal(err)
			}
			deltaSum += math.Abs(me.Max-ms.Max) / ms.Max
		}
		if i == 0 {
			printFirst("ablation-oracle", fmt.Sprintf(
				"\nablation: oracle — elmore picked the simulator's edge on %d/%d nets; mean measured-delay gap %.2f%%\n",
				agree, nets, 100*deltaSum/nets))
		}
		b.ReportMetric(float64(agree)/nets, "edge-agreement")
		b.ReportMetric(100*deltaSum/nets, "delay-gap-%")
	}
}

// BenchmarkAblationSegmentation measures delay convergence versus π-segment
// granularity, validating the 500µm default.
func BenchmarkAblationSegmentation(b *testing.B) {
	params := rc.Default()
	net, err := nontree.GenerateNet(3, 10)
	if err != nil {
		b.Fatal(err)
	}
	topo, err := mst.Prim(net.Pins)
	if err != nil {
		b.Fatal(err)
	}
	segs := []float64{4000, 2000, 1000, 500, 250, 125}
	for i := 0; i < b.N; i++ {
		var out string
		var ref float64
		for _, s := range segs {
			oracle := &core.SpiceOracle{Params: params, Build: rc.BuildOpts{MaxSegmentLength: s}}
			d, err := oracle.SinkDelays(topo, nil)
			if err != nil {
				b.Fatal(err)
			}
			worst := 0.0
			for n := 1; n < topo.NumPins(); n++ {
				if d[n] > worst {
					worst = d[n]
				}
			}
			if s == segs[len(segs)-1] {
				ref = worst
			}
			out += fmt.Sprintf("  segment %5.0f µm: max delay %.5f ns\n", s, worst*1e9)
		}
		if i == 0 {
			printFirst("ablation-seg", "\nablation: segmentation (finest is reference "+
				fmt.Sprintf("%.5f ns)\n", ref*1e9)+out)
		}
	}
}

// BenchmarkAblationInductance compares RC and RLC delays under Table 1's
// 492 fH/µm — quantifying how much the (usually omitted) inductance moves
// the 50% crossing.
func BenchmarkAblationInductance(b *testing.B) {
	params := rc.Default()
	net, err := nontree.GenerateNet(3, 10)
	if err != nil {
		b.Fatal(err)
	}
	topo, err := mst.Prim(net.Pins)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		var delays [2]float64
		for j, withL := range []bool{false, true} {
			oracle := &core.SpiceOracle{Params: params, Build: rc.BuildOpts{IncludeInductance: withL}}
			d, err := oracle.SinkDelays(topo, nil)
			if err != nil {
				b.Fatal(err)
			}
			for n := 1; n < topo.NumPins(); n++ {
				if d[n] > delays[j] {
					delays[j] = d[n]
				}
			}
		}
		if i == 0 {
			printFirst("ablation-l", fmt.Sprintf(
				"\nablation: inductance — RC %.4f ns vs RLC %.4f ns (%.2f%% shift)\n",
				delays[0]*1e9, delays[1]*1e9, 100*math.Abs(delays[1]-delays[0])/delays[0]))
		}
		b.ReportMetric(100*math.Abs(delays[1]-delays[0])/delays[0], "L-shift-%")
	}
}

// BenchmarkAblationDelayModel compares the analytic delay models (raw
// Elmore, ln2·Elmore, two-pole Padé) against the transient simulator on
// random MSTs — the accuracy ladder that justifies which oracle steers the
// greedy loop.
func BenchmarkAblationDelayModel(b *testing.B) {
	params := rc.Default()
	const nets = 6
	models := []elmore.DelayModel{elmore.ModelElmoreRaw, elmore.ModelElmoreLn2, elmore.ModelTwoPole}
	for i := 0; i < b.N; i++ {
		errSum := make([]float64, len(models))
		for seed := int64(0); seed < nets; seed++ {
			net, err := nontree.GenerateNet(seed, 10)
			if err != nil {
				b.Fatal(err)
			}
			topo, err := mst.Prim(net.Pins)
			if err != nil {
				b.Fatal(err)
			}
			l, err := rc.Lump(topo, params, nil)
			if err != nil {
				b.Fatal(err)
			}
			ref, err := nontree.MeasureDelay(topo, params)
			if err != nil {
				b.Fatal(err)
			}
			for mi, m := range models {
				d, err := elmore.EstimateDelays(topo, l, m)
				if err != nil {
					b.Fatal(err)
				}
				est := elmore.MaxSinkDelay(d, topo.NumPins())
				errSum[mi] += math.Abs(est-ref.Max) / ref.Max
			}
		}
		if i == 0 {
			out := "\nablation: delay model (critical-sink error vs simulator)\n"
			for mi, m := range models {
				out += fmt.Sprintf("  %-12s %6.2f%%\n", m, 100*errSum[mi]/nets)
			}
			printFirst("ablation-model", out)
		}
		for mi, m := range models {
			b.ReportMetric(100*errSum[mi]/nets, m.String()+"-err-%")
		}
	}
}

// BenchmarkAblationIntegration compares trapezoidal and backward-Euler
// delay extraction at the default step count.
func BenchmarkAblationIntegration(b *testing.B) {
	params := rc.Default()
	net, err := nontree.GenerateNet(3, 10)
	if err != nil {
		b.Fatal(err)
	}
	topo, err := mst.Prim(net.Pins)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		var delays [2]float64
		for j, m := range []spice.Method{spice.Trapezoidal, spice.BackwardEuler} {
			mo := spice.DefaultMeasureOpts()
			mo.Method = m
			oracle := &core.SpiceOracle{Params: params, Measure: mo}
			d, err := oracle.SinkDelays(topo, nil)
			if err != nil {
				b.Fatal(err)
			}
			for n := 1; n < topo.NumPins(); n++ {
				if d[n] > delays[j] {
					delays[j] = d[n]
				}
			}
		}
		if i == 0 {
			printFirst("ablation-int", fmt.Sprintf(
				"\nablation: integration — trapezoidal %.5f ns vs backward-Euler %.5f ns (%.3f%% apart)\n",
				delays[0]*1e9, delays[1]*1e9, 100*math.Abs(delays[1]-delays[0])/delays[0]))
		}
	}
}

// BenchmarkAblationFidelity measures the *fidelity* of the analytic delay
// models — how faithfully they rank candidate edge additions relative to
// the transient simulator (Spearman ρ over all single-edge candidates).
// High fidelity, not absolute accuracy, is what lets an analytic oracle
// steer the greedy search; this is the property Boese et al. establish for
// Elmore delay and the premise of DESIGN.md's oracle substitution.
func BenchmarkAblationFidelity(b *testing.B) {
	params := rc.Default()
	const nets = 4
	for i := 0; i < b.N; i++ {
		var rhoElmore, rhoTwoPole float64
		counted := 0
		for seed := int64(0); seed < nets; seed++ {
			net, err := nontree.GenerateNet(seed, 9)
			if err != nil {
				b.Fatal(err)
			}
			topo, err := mst.Prim(net.Pins)
			if err != nil {
				b.Fatal(err)
			}
			spiceOr := &core.SpiceOracle{Params: params}
			elmOr := &core.ElmoreOracle{Params: params}
			tpOr := &core.TwoPoleOracle{Params: params}

			var spiceObj, elmObj, tpObj []float64
			for _, e := range topo.AbsentEdges() {
				if err := topo.AddEdge(e); err != nil {
					b.Fatal(err)
				}
				for _, probe := range []struct {
					oracle core.DelayOracle
					out    *[]float64
				}{{spiceOr, &spiceObj}, {elmOr, &elmObj}, {tpOr, &tpObj}} {
					d, err := probe.oracle.SinkDelays(topo, nil)
					if err != nil {
						b.Fatal(err)
					}
					worst := 0.0
					for n := 1; n < topo.NumPins(); n++ {
						if d[n] > worst {
							worst = d[n]
						}
					}
					*probe.out = append(*probe.out, worst)
				}
				if err := topo.RemoveEdge(e); err != nil {
					b.Fatal(err)
				}
			}
			re := stats.SpearmanRank(elmObj, spiceObj)
			rt := stats.SpearmanRank(tpObj, spiceObj)
			if !math.IsNaN(re) && !math.IsNaN(rt) {
				rhoElmore += re
				rhoTwoPole += rt
				counted++
			}
		}
		if i == 0 && counted > 0 {
			printFirst("ablation-fidelity", fmt.Sprintf(
				"\nablation: fidelity — Spearman ρ of candidate ranking vs simulator: elmore %.4f, two-pole %.4f (over %d nets)\n",
				rhoElmore/float64(counted), rhoTwoPole/float64(counted), counted))
		}
		if counted > 0 {
			b.ReportMetric(rhoElmore/float64(counted), "elmore-rho")
			b.ReportMetric(rhoTwoPole/float64(counted), "twopole-rho")
		}
	}
}

// BenchmarkAblationCleanup quantifies the cost-recovery post-pass: wire
// recovered from LDRG routings at 0% and 5% delay slack.
func BenchmarkAblationCleanup(b *testing.B) {
	const nets = 8
	for i := 0; i < b.N; i++ {
		var addSum, rec0, rec5 float64
		for seed := int64(0); seed < nets; seed++ {
			net, err := nontree.GenerateNet(seed, 15)
			if err != nil {
				b.Fatal(err)
			}
			seedTopo, err := mst.Prim(net.Pins)
			if err != nil {
				b.Fatal(err)
			}
			ldrg, err := nontree.LDRG(seedTopo, nontree.Config{})
			if err != nil {
				b.Fatal(err)
			}
			addSum += ldrg.Topology.Cost() - seedTopo.Cost()
			for _, slack := range []float64{0, 0.05} {
				res, err := nontree.Cleanup(ldrg.Topology, slack, nontree.Config{})
				if err != nil {
					b.Fatal(err)
				}
				if slack == 0 {
					rec0 += res.CostRecovered
				} else {
					rec5 += res.CostRecovered
				}
			}
		}
		if i == 0 {
			printFirst("ablation-cleanup", fmt.Sprintf(
				"\nablation: cleanup — LDRG added %.0f µm across %d nets; cleanup recovered %.0f µm at 0%% slack, %.0f µm at 5%% slack\n",
				addSum, nets, rec0, rec5))
		}
		b.ReportMetric(rec5/nets, "recovered-um/net")
	}
}

// --- Engine micro-benchmarks ---

func benchNet(b *testing.B, pins int) *nontree.Net {
	b.Helper()
	net, err := nontree.GenerateNet(42, pins)
	if err != nil {
		b.Fatal(err)
	}
	return net
}

func BenchmarkMST30(b *testing.B) {
	net := benchNet(b, 30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mst.Prim(net.Pins); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSteinerTree20(b *testing.B) {
	net := benchNet(b, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nontree.SteinerTree(net); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSteinerTree30(b *testing.B) {
	net := benchNet(b, 30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nontree.SteinerTree(net); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkERT30(b *testing.B) {
	net := benchNet(b, 30)
	params := rc.Default()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nontree.ERT(net, params); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkElmoreGraphDelays30(b *testing.B) {
	net := benchNet(b, 30)
	topo, err := mst.Prim(net.Pins)
	if err != nil {
		b.Fatal(err)
	}
	oracle := &core.ElmoreOracle{Params: rc.Default()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := oracle.SinkDelays(topo, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSinkDelays times one ElmoreOracle.SinkDelays call, a full
// Elmore solve (lump, factor, solve), on the MST of a 5-, 10-, 20- and
// 30-pin net: the per-call cost of every full-solve sweep candidate and
// the layer the sparse-factor work targets.
func BenchmarkSinkDelays(b *testing.B) {
	oracle := &core.ElmoreOracle{Params: rc.Default()}
	for _, pins := range []int{5, 10, 20, 30} {
		b.Run(fmt.Sprint(pins), func(b *testing.B) {
			topo, err := nontree.MST(benchNet(b, pins))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := oracle.SinkDelays(topo, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTraceRingEmit times one daemon request's tracing: a fresh ring
// at the daemon's default capacity (1<<16 events) receiving 394 events,
// the mean a route-closed request emits, so ns/op and allocs/op show how
// the ring's storage grows.
func BenchmarkTraceRingEmit(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ring := trace.NewRing(1 << 16)
		for k := 0; k < 394; k++ {
			ring.Emit(trace.Event{Kind: trace.KindCandidateScored, Sweep: 1, Index: k, U: k, V: k + 1})
		}
	}
}

// BenchmarkTraceRingEmitEach is BenchmarkTraceRingEmit with the 394
// events emitted as one batch, the way a sweep emits its candidate events.
func BenchmarkTraceRingEmitEach(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ring := trace.NewRing(1 << 16)
		ring.EmitEach(394, func(k int, e *trace.Event) {
			e.Kind, e.Sweep, e.Index, e.U, e.V = trace.KindCandidateScored, 1, k, k, k+1
		})
	}
}

// BenchmarkTracesEncode times the encoding GET /traces/<id> does: the
// canonical JSONL of the trace of an LDRGWithTaps run on a 30-pin net.
func BenchmarkTracesEncode(b *testing.B) {
	seed, err := nontree.MST(benchNet(b, 30))
	if err != nil {
		b.Fatal(err)
	}
	ring := nontree.NewTraceRing(0)
	if _, err := nontree.LDRGWithTaps(seed, nontree.Config{Trace: ring}); err != nil {
		b.Fatal(err)
	}
	var out bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.Reset()
		if err := ring.WriteJSONL(&out); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(ring.Len()), "events")
	b.SetBytes(int64(out.Len()))
}

// BenchmarkTopologyEdges30 times Topology.Edges, the canonical edge list
// every lump, factorization and cost walks, on a 30-pin MST.
func BenchmarkTopologyEdges30(b *testing.B) {
	topo, err := nontree.MST(benchNet(b, 30))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(topo.Edges()) != 29 {
			b.Fatal("a 30-pin MST has 29 edges")
		}
	}
}

// BenchmarkSpiceMeasure times one SpiceOracle.SinkDelays call, a full SPICE
// measurement (build the circuit, DC solve, transient to every sink's 50%
// crossing), on the MST of a 5-, 10-, 20- and 30-pin net. A warm call
// builds and measures in the circuit and simulator workspace an earlier
// call returned, so it allocates only the crossings and delays it returns
// (480 B/op at 30 pins, against 138 KB when every call built its own),
// and its time is the transient's per-step solve and history product plus
// three LU factorizations (BenchmarkMNAFactor in internal/spice times
// one). At -benchtime 1x the one timed op is also the first, which
// allocates the workspace.
func BenchmarkSpiceMeasure(b *testing.B) {
	oracle := &core.SpiceOracle{Params: rc.Default()}
	for _, pins := range []int{5, 10, 20, 30} {
		b.Run(fmt.Sprint(pins), func(b *testing.B) {
			topo, err := nontree.MST(benchNet(b, pins))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := oracle.SinkDelays(topo, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkLDRGElmore20(b *testing.B) {
	net := benchNet(b, 20)
	topo, err := mst.Prim(net.Pins)
	if err != nil {
		b.Fatal(err)
	}
	opts := core.Options{Oracle: &core.ElmoreOracle{Params: rc.Default()}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.LDRG(topo, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLDRGElmore30 measures the facade's LDRG with the Elmore oracle,
// which scores candidates incrementally (Sherman–Morrison) — compare with
// BenchmarkLDRGNaive30 for the O(n³)→O(n²) candidate-eval win.
func BenchmarkLDRGElmore30(b *testing.B) {
	net := benchNet(b, 30)
	topo, err := mst.Prim(net.Pins)
	if err != nil {
		b.Fatal(err)
	}
	cfg := nontree.Config{Oracle: nontree.OracleElmore}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nontree.LDRG(topo, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLDRGElmoreLarge times LDRG with the Elmore oracle on nets far
// larger than the paper's, where almost every candidate's probe stops
// early (see the scan rules in internal/core/sweep.go). Compare commits
// with go test -run '^$' -bench LDRGElmoreLarge -benchtime 1x .
func BenchmarkLDRGElmoreLarge(b *testing.B) {
	for _, pins := range []int{300, 1000} {
		b.Run(fmt.Sprint(pins), func(b *testing.B) {
			net, err := nontree.GenerateNet(1, pins)
			if err != nil {
				b.Fatal(err)
			}
			topo, err := mst.Prim(net.Pins)
			if err != nil {
				b.Fatal(err)
			}
			opts := core.Options{Oracle: &core.ElmoreOracle{Params: rc.Default()}, Workers: 1}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.LDRG(topo, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// fullSolve hides an oracle's incremental support (embedding the interface
// keeps only SinkDelays and Name), so every sweep over it scores each
// candidate with a full solve on the worker pool.
type fullSolve struct{ core.DelayOracle }

// benchParallelSweep times one full LDRG candidate sweep (MaxAddedEdges: 1
// bounds the run to the seed evaluation plus a single sweep-and-commit) at
// a given worker count. Sequential (w1) and parallel (wN) variants return
// byte-identical results — the determinism guarantee of the sweep engine —
// so the ratio of their ns/op is pure parallel speedup. On a multi-core
// runner the GOMAXPROCS variant should beat w1 by well over 1.5× with the
// SPICE oracle, whose per-candidate cost dwarfs the fan-out overhead.
func benchParallelSweep(b *testing.B, oracle core.DelayOracle, workers int) {
	b.Helper()
	net := benchNet(b, 20)
	topo, err := mst.Prim(net.Pins)
	if err != nil {
		b.Fatal(err)
	}
	opts := core.Options{Oracle: oracle, MaxAddedEdges: 1, Workers: workers}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.LDRG(topo, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParallelSweepElmore20W1(b *testing.B) {
	benchParallelSweep(b, fullSolve{&core.ElmoreOracle{Params: rc.Default()}}, 1)
}

func BenchmarkParallelSweepElmore20WMax(b *testing.B) {
	benchParallelSweep(b, fullSolve{&core.ElmoreOracle{Params: rc.Default()}}, runtime.GOMAXPROCS(0))
}

func BenchmarkParallelSweepSpice20W1(b *testing.B) {
	benchParallelSweep(b, &core.SpiceOracle{Params: rc.Default()}, 1)
}

func BenchmarkParallelSweepSpice20WMax(b *testing.B) {
	benchParallelSweep(b, &core.SpiceOracle{Params: rc.Default()}, runtime.GOMAXPROCS(0))
}

// BenchmarkLDRGNaive30 is the same greedy with a full solve per candidate
// (the oracle's incremental support hidden by fullSolve), for comparison
// against BenchmarkLDRGElmore30.
func BenchmarkLDRGNaive30(b *testing.B) {
	net := benchNet(b, 30)
	topo, err := mst.Prim(net.Pins)
	if err != nil {
		b.Fatal(err)
	}
	opts := core.Options{Oracle: fullSolve{&core.ElmoreOracle{Params: rc.Default()}}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.LDRG(topo, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkH3Heuristic20(b *testing.B) {
	net := benchNet(b, 20)
	topo, err := mst.Prim(net.Pins)
	if err != nil {
		b.Fatal(err)
	}
	params := rc.Default()
	opts := core.Options{Oracle: &core.ElmoreOracle{Params: params}, MaxAddedEdges: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.H3(topo, params, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationPlanar measures the delay price of forbidding wire
// crossings: LDRG vs planarity-constrained LDRG on common nets.
func BenchmarkAblationPlanar(b *testing.B) {
	params := rc.Default()
	const nets = 6
	for i := 0; i < b.N; i++ {
		var freeDelay, planarDelay, freeCross, planarCross float64
		for seed := int64(0); seed < nets; seed++ {
			net, err := nontree.GenerateNet(seed, 15)
			if err != nil {
				b.Fatal(err)
			}
			seedTopo, err := mst.Prim(net.Pins)
			if err != nil {
				b.Fatal(err)
			}
			free, err := nontree.LDRG(seedTopo, nontree.Config{})
			if err != nil {
				b.Fatal(err)
			}
			planar, err := nontree.LDRG(seedTopo, nontree.Config{PlanarOnly: true})
			if err != nil {
				b.Fatal(err)
			}
			mf, err := nontree.MeasureDelay(free.Topology, params)
			if err != nil {
				b.Fatal(err)
			}
			mp, err := nontree.MeasureDelay(planar.Topology, params)
			if err != nil {
				b.Fatal(err)
			}
			base, err := nontree.MeasureDelay(seedTopo, params)
			if err != nil {
				b.Fatal(err)
			}
			freeDelay += mf.Max / base.Max
			planarDelay += mp.Max / base.Max
			freeCross += float64(nontree.Crossings(free.Topology))
			planarCross += float64(nontree.Crossings(planar.Topology))
		}
		if i == 0 {
			printFirst("ablation-planar", fmt.Sprintf(
				"\nablation: planarity — delay ratio vs MST: unconstrained %.3f (%.1f crossings/net), planar-only %.3f (%.1f crossings/net)\n",
				freeDelay/nets, freeCross/nets, planarDelay/nets, planarCross/nets))
		}
	}
}

// BenchmarkAblationTaps quantifies the SORG tap extension: plain LDRG vs
// LDRGWithTaps (shortcuts may terminate at new Steiner points mid-edge),
// simulator-measured, normalized to the MST.
func BenchmarkAblationTaps(b *testing.B) {
	params := rc.Default()
	const nets = 6
	for i := 0; i < b.N; i++ {
		var plainSum, tapSum, plainCost, tapCost float64
		for seed := int64(0); seed < nets; seed++ {
			net, err := nontree.GenerateNet(seed, 15)
			if err != nil {
				b.Fatal(err)
			}
			seedTopo, err := mst.Prim(net.Pins)
			if err != nil {
				b.Fatal(err)
			}
			base, err := nontree.MeasureDelay(seedTopo, params)
			if err != nil {
				b.Fatal(err)
			}
			plain, err := nontree.LDRG(seedTopo, nontree.Config{})
			if err != nil {
				b.Fatal(err)
			}
			taps, err := nontree.LDRGWithTaps(seedTopo, nontree.Config{})
			if err != nil {
				b.Fatal(err)
			}
			mp, err := nontree.MeasureDelay(plain.Topology, params)
			if err != nil {
				b.Fatal(err)
			}
			mt, err := nontree.MeasureDelay(taps.Topology, params)
			if err != nil {
				b.Fatal(err)
			}
			plainSum += mp.Max / base.Max
			tapSum += mt.Max / base.Max
			plainCost += mp.Wirelength / base.Wirelength
			tapCost += mt.Wirelength / base.Wirelength
		}
		if i == 0 {
			printFirst("ablation-taps", fmt.Sprintf(
				"\nablation: SORG taps — delay ratio vs MST: plain LDRG %.3f (cost ×%.3f), LDRG+taps %.3f (cost ×%.3f)\n",
				plainSum/nets, plainCost/nets, tapSum/nets, tapCost/nets))
		}
		b.ReportMetric(tapSum/nets, "taps-delay-ratio")
		b.ReportMetric(plainSum/nets, "plain-delay-ratio")
	}
}

// BenchmarkAblationBandwidth confirms the frequency-domain face of the
// paper's claim: the extra wire that cuts the critical sink's delay also
// widens its -3dB bandwidth.
func BenchmarkAblationBandwidth(b *testing.B) {
	params := rc.Default()
	for i := 0; i < b.N; i++ {
		var bwMST, bwLDRG float64
		const nets = 4
		for seed := int64(0); seed < nets; seed++ {
			net, err := nontree.GenerateNet(seed, 10)
			if err != nil {
				b.Fatal(err)
			}
			seedTopo, err := mst.Prim(net.Pins)
			if err != nil {
				b.Fatal(err)
			}
			res, err := nontree.LDRG(seedTopo, nontree.Config{})
			if err != nil {
				b.Fatal(err)
			}
			for j, topo := range []*nontree.Topology{seedTopo, res.Topology} {
				cm, err := rc.BuildCircuit(topo, params, rc.BuildOpts{})
				if err != nil {
					b.Fatal(err)
				}
				delays, err := spice.MeasureDelays(cm.Circuit, cm.SinkNodes, spice.DefaultMeasureOpts())
				if err != nil {
					b.Fatal(err)
				}
				worstIdx := 0
				for k, d := range delays {
					if d > delays[worstIdx] {
						worstIdx = k
					}
				}
				guess := 0.35 / delays[worstIdx]
				f3db, err := spice.Bandwidth3dB(cm.Circuit, cm.SinkNodes[worstIdx], guess/1000, guess*1000)
				if err != nil {
					b.Fatal(err)
				}
				if j == 0 {
					bwMST += f3db
				} else {
					bwLDRG += f3db
				}
			}
		}
		if i == 0 {
			printFirst("ablation-bw", fmt.Sprintf(
				"\nablation: bandwidth — critical sink -3dB: MST %.1f MHz vs LDRG %.1f MHz (×%.2f)\n",
				bwMST/nets/1e6, bwLDRG/nets/1e6, bwLDRG/bwMST))
		}
		b.ReportMetric(bwLDRG/bwMST, "bw-ratio")
	}
}
