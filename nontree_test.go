package nontree_test

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"nontree"
	"nontree/internal/core"
)

func TestQuickstartFlow(t *testing.T) {
	// The README's quickstart, as a test.
	net, err := nontree.GenerateNet(42, 10)
	if err != nil {
		t.Fatal(err)
	}
	mst, err := nontree.MST(net)
	if err != nil {
		t.Fatal(err)
	}
	res, err := nontree.LDRG(mst, nontree.Config{})
	if err != nil {
		t.Fatal(err)
	}
	params := nontree.DefaultParams()
	before, err := nontree.MeasureDelay(mst, params)
	if err != nil {
		t.Fatal(err)
	}
	after, err := nontree.MeasureDelay(res.Topology, params)
	if err != nil {
		t.Fatal(err)
	}
	if after.Max > before.Max {
		t.Errorf("LDRG worsened measured delay %.3g → %.3g", before.Max, after.Max)
	}
	if after.Wirelength < before.Wirelength {
		t.Error("added wires cannot reduce wirelength")
	}
	if len(after.PerSink) != net.NumSinks() {
		t.Errorf("per-sink count %d", len(after.PerSink))
	}
}

func TestAllConstructorsProduceValidTopologies(t *testing.T) {
	net, err := nontree.GenerateNet(7, 9)
	if err != nil {
		t.Fatal(err)
	}
	params := nontree.DefaultParams()

	mst, err := nontree.MST(net)
	if err != nil {
		t.Fatal(err)
	}
	st, err := nontree.SteinerTree(net)
	if err != nil {
		t.Fatal(err)
	}
	ert, err := nontree.ERT(net, params)
	if err != nil {
		t.Fatal(err)
	}
	sert, err := nontree.SERT(net, params)
	if err != nil {
		t.Fatal(err)
	}
	for name, topo := range map[string]*nontree.Topology{
		"MST": mst, "Steiner": st, "ERT": ert, "SERT": sert,
	} {
		if !topo.IsTree() {
			t.Errorf("%s: not a tree", name)
		}
		if topo.NumPins() != 9 {
			t.Errorf("%s: pins %d", name, topo.NumPins())
		}
		rep, err := nontree.MeasureDelay(topo, params)
		if err != nil {
			t.Errorf("%s: measurement failed: %v", name, err)
			continue
		}
		if rep.Max <= 0 {
			t.Errorf("%s: non-positive delay", name)
		}
	}
	// Steiner must not cost more than the MST.
	if st.Cost() > mst.Cost()+1e-9 {
		t.Errorf("Steiner cost %.0f exceeds MST %.0f", st.Cost(), mst.Cost())
	}
}

func TestPaperHeadlineClaim(t *testing.T) {
	// "the addition of a single new wire to an existing MST routing
	// reduces the average signal propagation delay by up to 24%, while the
	// average interconnection cost increases by only 11%" — for 30-pin
	// nets. Check the average over a handful of nets: expect a material
	// average delay reduction at a modest cost increase.
	params := nontree.DefaultParams()
	var delaySum, costSum float64
	const trials = 8
	for seed := int64(0); seed < trials; seed++ {
		net, err := nontree.GenerateNet(seed, 30)
		if err != nil {
			t.Fatal(err)
		}
		mst, err := nontree.MST(net)
		if err != nil {
			t.Fatal(err)
		}
		res, err := nontree.LDRG(mst, nontree.Config{MaxAddedEdges: 1})
		if err != nil {
			t.Fatal(err)
		}
		before, err := nontree.MeasureDelay(mst, params)
		if err != nil {
			t.Fatal(err)
		}
		after, err := nontree.MeasureDelay(res.Topology, params)
		if err != nil {
			t.Fatal(err)
		}
		delaySum += after.Max / before.Max
		costSum += after.Wirelength / before.Wirelength
	}
	avgDelay, avgCost := delaySum/trials, costSum/trials
	if avgDelay > 0.90 {
		t.Errorf("average single-edge delay ratio %.3f; paper reports ~0.76 for 30 pins", avgDelay)
	}
	if avgCost > 1.30 {
		t.Errorf("average cost ratio %.3f; paper reports ~1.11 for 30 pins", avgCost)
	}
	t.Logf("30-pin single-edge LDRG: delay ×%.3f, cost ×%.3f (paper: 0.76 / 1.11)", avgDelay, avgCost)
}

func TestNonTreeBeatsOptimalTreeClaim(t *testing.T) {
	// Section 4's closing claim: ERT-seeded LDRG finds routings better
	// than near-optimal trees on a meaningful fraction of nets.
	params := nontree.DefaultParams()
	wins := 0
	const trials = 10
	for seed := int64(0); seed < trials; seed++ {
		net, err := nontree.GenerateNet(seed, 20)
		if err != nil {
			t.Fatal(err)
		}
		ert, err := nontree.ERT(net, params)
		if err != nil {
			t.Fatal(err)
		}
		res, err := nontree.LDRG(ert, nontree.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Improved() && len(res.AddedEdges) > 0 {
			wins++
		}
	}
	if wins == 0 {
		t.Error("ERT-seeded LDRG never improved an ERT across 10 nets; paper reports 44-56% winners")
	}
	t.Logf("ERT-seeded LDRG improved %d/%d nets", wins, trials)
}

func TestHeuristicsEndToEnd(t *testing.T) {
	net, err := nontree.GenerateNet(25, 10)
	if err != nil {
		t.Fatal(err)
	}
	mst, err := nontree.MST(net)
	if err != nil {
		t.Fatal(err)
	}
	cfg := nontree.Config{}
	h1, err := nontree.H1(mst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := nontree.H2(mst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h3, err := nontree.H3(mst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// H1 is conditional: never worse. H2/H3 may be worse but must produce
	// valid connected graphs.
	if h1.FinalObjective > h1.InitialObjective {
		t.Error("H1 worsened its objective")
	}
	for name, r := range map[string]*nontree.Result{"H1": h1, "H2": h2, "H3": h3} {
		if !r.Topology.Connected() {
			t.Errorf("%s output disconnected", name)
		}
	}
}

func TestSLDRGEndToEnd(t *testing.T) {
	net, err := nontree.GenerateNet(82, 10)
	if err != nil {
		t.Fatal(err)
	}
	res, err := nontree.SLDRG(net, nontree.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalObjective > res.InitialObjective {
		t.Error("SLDRG worsened delay")
	}
	if res.Seed == nil || !res.Seed.IsTree() {
		t.Error("missing Steiner seed")
	}
}

func TestSpiceOracleConfig(t *testing.T) {
	net, err := nontree.GenerateNet(3, 6)
	if err != nil {
		t.Fatal(err)
	}
	mst, err := nontree.MST(net)
	if err != nil {
		t.Fatal(err)
	}
	res, err := nontree.LDRG(mst, nontree.Config{Oracle: nontree.OracleSpice, MaxAddedEdges: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalObjective > res.InitialObjective {
		t.Error("spice-steered LDRG worsened delay")
	}
}

func TestElmoreDelayAPI(t *testing.T) {
	net, err := nontree.GenerateNet(5, 8)
	if err != nil {
		t.Fatal(err)
	}
	mst, err := nontree.MST(net)
	if err != nil {
		t.Fatal(err)
	}
	params := nontree.DefaultParams()
	rep, err := nontree.ElmoreDelay(mst, params)
	if err != nil {
		t.Fatal(err)
	}
	maxE, err := nontree.MaxSinkElmore(mst, params)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.Max-maxE) > 1e-18 {
		t.Errorf("ElmoreDelay.Max %.4g != MaxSinkElmore %.4g", rep.Max, maxE)
	}
}

func TestWaveformsAPI(t *testing.T) {
	net, err := nontree.GenerateNet(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	mst, err := nontree.MST(net)
	if err != nil {
		t.Fatal(err)
	}
	params := nontree.DefaultParams()
	rep, err := nontree.MeasureDelay(mst, params)
	if err != nil {
		t.Fatal(err)
	}
	times, sinks, err := nontree.Waveforms(mst, params, 4*rep.Max, 500)
	if err != nil {
		t.Fatal(err)
	}
	if len(sinks) != net.NumSinks() {
		t.Fatalf("sink series %d", len(sinks))
	}
	for i, series := range sinks {
		if len(series) != len(times) {
			t.Fatalf("series %d length %d vs %d times", i, len(series), len(times))
		}
		// Monotone-ish rise to ~1V: final sample close to Vdd.
		if final := series[len(series)-1]; final < 0.9 {
			t.Errorf("sink %d settled at %.3f V", i, final)
		}
	}
}

func TestNetIO(t *testing.T) {
	net := nontree.NewNet(nontree.Point{X: 0, Y: 0}, nontree.Point{X: 100, Y: 200})
	var buf bytes.Buffer
	if err := net.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := nontree.ReadNetJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumPins() != 2 {
		t.Error("JSON round trip failed")
	}
	back2, err := nontree.ReadNetText(strings.NewReader("pin 0 0\npin 100 200\n"))
	if err != nil {
		t.Fatal(err)
	}
	if back2.NumPins() != 2 {
		t.Error("text parse failed")
	}
}

func TestCriticalSinkShiftsPriorities(t *testing.T) {
	net, err := nontree.GenerateNet(31, 12)
	if err != nil {
		t.Fatal(err)
	}
	mst, err := nontree.MST(net)
	if err != nil {
		t.Fatal(err)
	}
	params := nontree.DefaultParams()
	base, err := nontree.ElmoreDelay(mst, params)
	if err != nil {
		t.Fatal(err)
	}
	// Pick the worst Elmore sink as critical.
	critical := 0
	for i, d := range base.PerSink {
		if d > base.PerSink[critical] {
			critical = i
		}
	}
	alphas := make([]float64, net.NumSinks())
	alphas[critical] = 1
	res, err := nontree.CriticalSinkLDRG(mst, alphas, nontree.Config{})
	if err != nil {
		t.Fatal(err)
	}
	after, err := nontree.ElmoreDelay(res.Topology, params)
	if err != nil {
		t.Fatal(err)
	}
	if after.PerSink[critical] > base.PerSink[critical] {
		t.Error("critical sink delay worsened under CSORG")
	}
}

func TestWireSizeAPI(t *testing.T) {
	net, err := nontree.GenerateNet(13, 12)
	if err != nil {
		t.Fatal(err)
	}
	mst, err := nontree.MST(net)
	if err != nil {
		t.Fatal(err)
	}
	res, err := nontree.WireSize(mst, 3, nontree.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalObjective > res.InitialObjective {
		t.Error("sizing worsened delay")
	}
	for _, w := range res.Widths {
		if w > 3 {
			t.Errorf("width %d exceeds request", w)
		}
	}
}

func TestHORGAPI(t *testing.T) {
	net, err := nontree.GenerateNet(17, 8)
	if err != nil {
		t.Fatal(err)
	}
	alphas := make([]float64, net.NumSinks())
	for i := range alphas {
		alphas[i] = 1
	}
	res, err := nontree.HORG(net, alphas, true, 3, nontree.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalObjective() <= 0 {
		t.Error("HORG produced non-positive objective")
	}
}

// TestFastLDRGMatchesLDRG: FastLDRG is LDRG with the Elmore oracle, on
// MST and Steiner seeds alike — the same added edges, cost and final edge
// list.
func TestFastLDRGMatchesLDRG(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		net, err := nontree.GenerateNet(seed, 15)
		if err != nil {
			t.Fatal(err)
		}
		for _, build := range []struct {
			name string
			tree func(*nontree.Net) (*nontree.Topology, error)
		}{{"mst", nontree.MST}, {"steiner", nontree.SteinerTree}} {
			tree, err := build.tree(net)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("seed %d %s", seed, build.name)
			fast, fastEdges, err := nontree.FastLDRG(tree, nontree.DefaultParams(), 0)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := nontree.LDRG(tree, nontree.Config{})
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(fastEdges) != fmt.Sprint(ref.AddedEdges) {
				t.Errorf("%s: added %v, LDRG added %v", label, fastEdges, ref.AddedEdges)
			}
			if fast.Cost() != ref.Topology.Cost() {
				t.Errorf("%s: cost %v, LDRG %v", label, fast.Cost(), ref.Topology.Cost())
			}
			if fmt.Sprint(fast.Edges()) != fmt.Sprint(ref.Topology.Edges()) {
				t.Errorf("%s: edges %v, LDRG %v", label, fast.Edges(), ref.Topology.Edges())
			}
		}
	}
}

func TestFastLDRGRespectsEdgeBudget(t *testing.T) {
	net, err := nontree.GenerateNet(3, 15)
	if err != nil {
		t.Fatal(err)
	}
	mst, err := nontree.MST(net)
	if err != nil {
		t.Fatal(err)
	}
	_, edges, err := nontree.FastLDRG(mst, nontree.DefaultParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(edges) != 1 {
		t.Errorf("budget of 1 added %v", edges)
	}
}

// TestFastLDRGRejectsBadSeeds: FastLDRG reports LDRG's seed errors instead
// of panicking on a nil seed.
func TestFastLDRGRejectsBadSeeds(t *testing.T) {
	net, err := nontree.GenerateNet(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	split, err := nontree.MST(net)
	if err != nil {
		t.Fatal(err)
	}
	if err := split.RemoveEdge(split.Edges()[0]); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		seed *nontree.Topology
		want error
	}{{"nil", nil, core.ErrSeedNil}, {"disconnected", split, core.ErrSeedInvalid}} {
		if _, _, err := nontree.FastLDRG(c.seed, nontree.DefaultParams(), 0); !errors.Is(err, c.want) {
			t.Errorf("%s seed: got %v, want %v", c.name, err, c.want)
		}
	}
}

func TestCleanupAPIRecoversOrKeeps(t *testing.T) {
	net, err := nontree.GenerateNet(4, 15)
	if err != nil {
		t.Fatal(err)
	}
	mst, err := nontree.MST(net)
	if err != nil {
		t.Fatal(err)
	}
	routed, err := nontree.LDRG(mst, nontree.Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := nontree.Cleanup(routed.Topology, 0.05, nontree.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Topology.Connected() {
		t.Fatal("cleanup disconnected the routing")
	}
	if res.CostRecovered < 0 {
		t.Error("negative recovery")
	}
}

func TestCrossingsAPI(t *testing.T) {
	// A '+'-shaped pair of independent edges must cross once.
	topo := nontree.NewNet(nontree.Point{X: -10, Y: 0},
		nontree.Point{X: 10, Y: 0}, nontree.Point{X: 0, Y: -10}, nontree.Point{X: 0, Y: 10})
	// Build the crossing topology manually.
	mst, err := nontree.MST(topo)
	if err != nil {
		t.Fatal(err)
	}
	if got := nontree.Crossings(mst); got != 0 {
		t.Errorf("MST of 4 points crossed %d times; trees should embed planar here", got)
	}
}

func TestDelayBoundsBracketMeasurement(t *testing.T) {
	net, err := nontree.GenerateNet(9, 8)
	if err != nil {
		t.Fatal(err)
	}
	mst, err := nontree.MST(net)
	if err != nil {
		t.Fatal(err)
	}
	p := nontree.DefaultParams()
	bounds, err := nontree.DelayBounds(mst, p)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := nontree.MeasureDelay(mst, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(bounds) != len(rep.PerSink) {
		t.Fatalf("bounds for %d sinks, measured %d", len(bounds), len(rep.PerSink))
	}
	for i, d := range rep.PerSink {
		if d < bounds[i][0] || d > bounds[i][1] {
			t.Errorf("sink %d: measured %.4g outside [%.4g, %.4g]",
				i+1, d, bounds[i][0], bounds[i][1])
		}
	}
}

func TestInvalidNetsRejectedAtAPI(t *testing.T) {
	bad := nontree.NewNet(nontree.Point{X: 0, Y: 0}) // no sinks
	if _, err := nontree.MST(bad); err == nil {
		t.Error("MST must reject sink-less net")
	}
	if _, err := nontree.SteinerTree(bad); err == nil {
		t.Error("SteinerTree must reject sink-less net")
	}
	if _, err := nontree.ERT(bad, nontree.DefaultParams()); err == nil {
		t.Error("ERT must reject sink-less net")
	}
	if _, err := nontree.SLDRG(bad, nontree.Config{}); err == nil {
		t.Error("SLDRG must reject sink-less net")
	}
	if _, err := nontree.MeasureDelay(nil, nontree.DefaultParams()); err == nil {
		t.Error("MeasureDelay must reject nil topology")
	}
}

func TestTapsAndEnergyAPIs(t *testing.T) {
	net, err := nontree.GenerateNet(11, 10)
	if err != nil {
		t.Fatal(err)
	}
	mst, err := nontree.MST(net)
	if err != nil {
		t.Fatal(err)
	}
	p := nontree.DefaultParams()
	taps, err := nontree.LDRGWithTaps(mst, nontree.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if taps.FinalObjective > taps.InitialObjective {
		t.Error("taps worsened delay")
	}
	e0, err := nontree.SwitchingEnergy(mst, p)
	if err != nil {
		t.Fatal(err)
	}
	e1, err := nontree.SwitchingEnergy(taps.Topology, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(taps.AddedEdges) > 0 && e1 <= e0 {
		t.Error("added wires must raise switching energy")
	}
}

func TestExplicitParamsRespected(t *testing.T) {
	// A Config carrying non-default params must use them, not defaults.
	net, err := nontree.GenerateNet(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	mst, err := nontree.MST(net)
	if err != nil {
		t.Fatal(err)
	}
	weak := nontree.DefaultParams()
	weak.DriverResistance = 10000 // a feeble driver: rd dominates everything
	res, err := nontree.LDRG(mst, nontree.Config{Params: weak})
	if err != nil {
		t.Fatal(err)
	}
	// With rd huge, extra wires only add capacitance: LDRG must add nothing.
	if len(res.AddedEdges) != 0 {
		t.Errorf("feeble-driver LDRG added %v; resistance shortcuts cannot pay", res.AddedEdges)
	}
}

func TestPDTreeAndBRBCAPIs(t *testing.T) {
	net, err := nontree.GenerateNet(21, 12)
	if err != nil {
		t.Fatal(err)
	}
	mst, err := nontree.MST(net)
	if err != nil {
		t.Fatal(err)
	}
	pd0, err := nontree.PDTree(net, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pd0.Cost()-mst.Cost()) > 1e-6 {
		t.Errorf("PDTree(0) cost %.1f != MST %.1f", pd0.Cost(), mst.Cost())
	}
	brbc, err := nontree.BRBC(net, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !brbc.IsTree() {
		t.Error("BRBC must be a tree")
	}
	if brbc.Cost() > 5*mst.Cost() {
		t.Errorf("BRBC ε=0.5 cost %.1f exceeds its (1+2/ε)=5× bound vs MST %.1f", brbc.Cost(), mst.Cost())
	}
	if _, err := nontree.PDTree(net, 2); err == nil {
		t.Error("c > 1 must be rejected")
	}
	if _, err := nontree.BRBC(net, 0); err == nil {
		t.Error("ε = 0 must be rejected")
	}
}
