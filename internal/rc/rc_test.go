package rc

import (
	"math"
	"testing"
	"testing/quick"

	"nontree/internal/geom"
	"nontree/internal/graph"
	"nontree/internal/mst"
	"nontree/internal/netlist"
	"nontree/internal/spice"
)

func twoPinTopo(t *testing.T, length float64) *graph.Topology {
	t.Helper()
	topo := graph.NewTopology([]geom.Point{{X: 0, Y: 0}, {X: length, Y: 0}})
	if err := topo.AddEdge(graph.Edge{U: 0, V: 1}); err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestDefaultParamsMatchPaperTable1(t *testing.T) {
	p := Default()
	if p.DriverResistance != 100 {
		t.Errorf("driver = %v", p.DriverResistance)
	}
	if p.WireResistance != 0.03 {
		t.Errorf("wire R = %v", p.WireResistance)
	}
	if p.WireCapacitance != 0.352e-15 {
		t.Errorf("wire C = %v", p.WireCapacitance)
	}
	if p.WireInductance != 492e-18 {
		t.Errorf("wire L = %v", p.WireInductance)
	}
	if p.SinkCapacitance != 15.3e-15 {
		t.Errorf("sink C = %v", p.SinkCapacitance)
	}
	if err := p.Validate(); err != nil {
		t.Errorf("defaults must validate: %v", err)
	}
}

func TestParamsValidation(t *testing.T) {
	mods := []func(*Params){
		func(p *Params) { p.DriverResistance = 0 },
		func(p *Params) { p.WireResistance = -1 },
		func(p *Params) { p.WireCapacitance = 0 },
		func(p *Params) { p.WireInductance = -1 },
		func(p *Params) { p.SinkCapacitance = -1 },
		func(p *Params) { p.Vdd = 0 },
	}
	for i, mod := range mods {
		p := Default()
		mod(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("modification %d must fail validation", i)
		}
	}
}

func TestBuildCircuitElementCounts(t *testing.T) {
	p := Default()
	topo := twoPinTopo(t, 1000)
	cm, err := BuildCircuit(topo, p, BuildOpts{MaxSegmentLength: 250})
	if err != nil {
		t.Fatal(err)
	}
	r, c, l, v, i := cm.Circuit.Counts()
	// 1000µm / 250 = 4 segments + 1 driver resistor = 5 R.
	if r != 5 {
		t.Errorf("resistors = %d, want 5", r)
	}
	// 2 pin loads + 2 caps per segment = 10 C.
	if c != 10 {
		t.Errorf("capacitors = %d, want 10", c)
	}
	if l != 0 || v != 1 || i != 0 {
		t.Errorf("l=%d v=%d i=%d", l, v, i)
	}
	if len(cm.SinkNodes) != 1 {
		t.Errorf("sink nodes: %v", cm.SinkNodes)
	}
}

func TestBuildCircuitInductanceAddsL(t *testing.T) {
	p := Default()
	topo := twoPinTopo(t, 1000)
	cm, err := BuildCircuit(topo, p, BuildOpts{MaxSegmentLength: 500, IncludeInductance: true})
	if err != nil {
		t.Fatal(err)
	}
	_, _, l, _, _ := cm.Circuit.Counts()
	if l != 2 {
		t.Errorf("inductors = %d, want 2 (one per segment)", l)
	}
}

func TestBuildCircuitDisconnectedRejected(t *testing.T) {
	topo := graph.NewTopology([]geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 2, Y: 0}})
	_ = topo.AddEdge(graph.Edge{U: 0, V: 1})
	if _, err := BuildCircuit(topo, Default(), BuildOpts{}); err != ErrDisconnected {
		t.Errorf("got %v, want ErrDisconnected", err)
	}
}

func TestBuildCircuitBadWidth(t *testing.T) {
	topo := twoPinTopo(t, 1000)
	_, err := BuildCircuit(topo, Default(), BuildOpts{
		Width: func(graph.Edge) float64 { return 0 },
	})
	if err == nil {
		t.Error("zero width must be rejected")
	}
}

func TestSegmentationPreservesTotals(t *testing.T) {
	// Whatever the segmentation, total wire R and C must be conserved.
	p := Default()
	for _, seg := range []float64{100, 333, 1000, 5000} {
		topo := twoPinTopo(t, 3000)
		cm, err := BuildCircuit(topo, p, BuildOpts{MaxSegmentLength: seg})
		if err != nil {
			t.Fatal(err)
		}
		// Total R excluding the driver.
		totR := -p.DriverResistance
		for _, res := range circuitResistors(cm.Circuit) {
			totR += res
		}
		wantR := p.WireResistance * 3000
		if math.Abs(totR-wantR) > 1e-9 {
			t.Errorf("seg %v: wire R %v, want %v", seg, totR, wantR)
		}
		totC := -2 * p.SinkCapacitance
		for _, c := range circuitCapacitors(cm.Circuit) {
			totC += c
		}
		wantC := p.WireCapacitance * 3000
		if math.Abs(totC-wantC) > 1e-21 {
			t.Errorf("seg %v: wire C %v, want %v", seg, totC, wantC)
		}
	}
}

// circuitResistors and circuitCapacitors extract element values via the
// Counts-style public surface; they re-measure using the DC solver as a
// black box would be overkill, so the test peeks through a tiny shim here.
func circuitResistors(c *spice.Circuit) []float64  { return spice.ResistorValues(c) }
func circuitCapacitors(c *spice.Circuit) []float64 { return spice.CapacitorValues(c) }

func TestWidthScalesRAndC(t *testing.T) {
	p := Default()
	topo := twoPinTopo(t, 2000)
	wide := func(graph.Edge) float64 { return 2 }

	l1 := new(Lumped)
	if err := Lump(l1, topo, p, nil); err != nil {
		t.Fatal(err)
	}
	l2 := new(Lumped)
	if err := Lump(l2, topo, p, wide); err != nil {
		t.Fatal(err)
	}
	if math.Abs(l2.EdgeRes[0]-l1.EdgeRes[0]/2) > 1e-12 {
		t.Errorf("width 2 must halve resistance: %v vs %v", l2.EdgeRes[0], l1.EdgeRes[0])
	}
	wireCap1 := l1.NodeCap[0] - p.SinkCapacitance
	wireCap2 := l2.NodeCap[0] - p.SinkCapacitance
	if math.Abs(wireCap2-2*wireCap1) > 1e-21 {
		t.Errorf("width 2 must double capacitance: %v vs %v", wireCap2, wireCap1)
	}
}

func TestLumpTotals(t *testing.T) {
	p := Default()
	gen := netlist.NewGenerator(9)
	net, err := gen.Generate(12)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := mst.Prim(net.Pins)
	if err != nil {
		t.Fatal(err)
	}
	l := new(Lumped)
	if err := Lump(l, topo, p, nil); err != nil {
		t.Fatal(err)
	}
	want := p.WireCapacitance*topo.Cost() + float64(topo.NumPins())*p.SinkCapacitance
	if math.Abs(l.TotalCap()-want) > 1e-20 {
		t.Errorf("TotalCap = %v, want %v", l.TotalCap(), want)
	}
	var totR float64
	for k, e := range topo.Edges() {
		r := l.EdgeRes[k]
		totR += r
		if math.Abs(r-p.WireResistance*topo.EdgeLength(e)) > 1e-12 {
			t.Errorf("edge %v resistance %v", e, r)
		}
	}
	if math.Abs(totR-p.WireResistance*topo.Cost()) > 1e-9 {
		t.Errorf("total R = %v", totR)
	}
}

func TestLumpInvariantUnderSegmentationProperty(t *testing.T) {
	// Lump has no segmentation; but the distributed circuit's measured
	// delay should converge to a fixed value as segmentation refines, and
	// the lumped totals must match the distributed totals. Here we assert
	// the structural half: randomized nets keep cap/resistance conservation.
	f := func(seed int64) bool {
		gen := netlist.NewGenerator(seed)
		net, err := gen.Generate(6)
		if err != nil {
			return false
		}
		topo, err := mst.Prim(net.Pins)
		if err != nil {
			return false
		}
		p := Default()
		l := new(Lumped)
		if err := Lump(l, topo, p, nil); err != nil {
			return false
		}
		want := p.WireCapacitance*topo.Cost() + float64(topo.NumPins())*p.SinkCapacitance
		return math.Abs(l.TotalCap()-want) < 1e-20
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestBuildCircuitDelaysConvergeWithSegmentation(t *testing.T) {
	p := Default()
	gen := netlist.NewGenerator(5)
	net, err := gen.Generate(8)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := mst.Prim(net.Pins)
	if err != nil {
		t.Fatal(err)
	}
	measure := func(seg float64) float64 {
		cm, err := BuildCircuit(topo, p, BuildOpts{MaxSegmentLength: seg})
		if err != nil {
			t.Fatal(err)
		}
		d, err := spice.MeasureDelays(cm.Circuit, cm.SinkNodes, spice.DefaultMeasureOpts())
		if err != nil {
			t.Fatal(err)
		}
		return spice.MaxDelay(d)
	}
	coarse := measure(4000)
	fine := measure(200)
	if rel := math.Abs(coarse-fine) / fine; rel > 0.02 {
		t.Errorf("coarse %.4g vs fine %.4g: %.2f%% apart (lumping not converged)",
			coarse, fine, rel*100)
	}
}

func TestIsolatedSteinerNodeTolerated(t *testing.T) {
	// A degree-0 Steiner node must not produce a floating circuit node.
	topo := graph.NewTopology([]geom.Point{{X: 0, Y: 0}, {X: 1000, Y: 0}})
	if err := topo.AddEdge(graph.Edge{U: 0, V: 1}); err != nil {
		t.Fatal(err)
	}
	topo.AddSteinerNode(geom.Pt(5000, 5000))
	cm, err := BuildCircuit(topo, Default(), BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := spice.MeasureDelays(cm.Circuit, cm.SinkNodes, spice.DefaultMeasureOpts()); err != nil {
		t.Fatalf("isolated Steiner node broke simulation: %v", err)
	}
}

func TestSwitchingEnergy(t *testing.T) {
	p := Default()
	topo := twoPinTopo(t, 1000)
	e, err := SwitchingEnergy(topo, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.5 * (p.WireCapacitance*1000 + 2*p.SinkCapacitance) * p.Vdd * p.Vdd
	if math.Abs(e-want) > 1e-25 {
		t.Errorf("energy %.6g, want %.6g", e, want)
	}
	// Doubling widths doubles wire capacitance but not sink loads.
	e2, err := SwitchingEnergy(topo, p, func(graph.Edge) float64 { return 2 })
	if err != nil {
		t.Fatal(err)
	}
	wantWide := 0.5 * (2*p.WireCapacitance*1000 + 2*p.SinkCapacitance) * p.Vdd * p.Vdd
	if math.Abs(e2-wantWide) > 1e-25 {
		t.Errorf("wide energy %.6g, want %.6g", e2, wantWide)
	}
	if e2 <= e {
		t.Error("wider wires must cost more energy")
	}
}

func TestDelayGrowsQuadraticallyWithWirelength(t *testing.T) {
	// Section 1 of the paper: "the delay t_ED(n_i) is quadratic in the
	// length of the n0-n_i path". End to end: the simulated 50% delay of a
	// wire-dominated run must grow ~quadratically when the wire doubles.
	p := Default()
	measure := func(length float64) float64 {
		topo := twoPinTopo(t, length)
		cm, err := BuildCircuit(topo, p, BuildOpts{})
		if err != nil {
			t.Fatal(err)
		}
		d, err := spice.MeasureDelays(cm.Circuit, cm.SinkNodes, spice.DefaultMeasureOpts())
		if err != nil {
			t.Fatal(err)
		}
		return d[0]
	}
	d1, d2 := measure(20000), measure(40000)
	ratio := d2 / d1
	if ratio < 2.8 || ratio > 4.2 {
		t.Errorf("doubling a wire-dominated run scaled delay x%.2f; expected ~3-4 (quadratic regime)", ratio)
	}
	// Short wires are driver-dominated: scaling is closer to linear there.
	s1, s2 := measure(500), measure(1000)
	if shortRatio := s2 / s1; shortRatio > 2.5 {
		t.Errorf("driver-dominated regime scaled x%.2f; expected <2.5", shortRatio)
	}
}
