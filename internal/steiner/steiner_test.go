package steiner

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"nontree/internal/geom"
	"nontree/internal/graph"
	"nontree/internal/mst"
	"nontree/internal/netlist"
)

func TestCrossNetGetsCenterSteinerPoint(t *testing.T) {
	// Four pins at the compass points: the optimal Steiner tree uses the
	// center, saving 1/3 of the MST cost.
	pins := []geom.Point{
		{X: 500, Y: 0}, {X: 0, Y: 500}, {X: 1000, Y: 500}, {X: 500, Y: 1000},
	}
	topo, err := Tree(pins, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !topo.IsTree() {
		t.Error("result must be a tree")
	}
	mstCost := mst.Cost(pins)
	if topo.Cost() >= mstCost {
		t.Errorf("Steiner cost %.0f not below MST %.0f", topo.Cost(), mstCost)
	}
	// The cross's optimum is 2000 (two spans through the center).
	if topo.Cost() != 2000 {
		t.Errorf("cross Steiner cost = %.0f, want 2000", topo.Cost())
	}
	if topo.NumNodes() != 5 || !topo.IsSteiner(4) {
		t.Errorf("expected exactly one Steiner point, got %d nodes", topo.NumNodes())
	}
	if !topo.Point(4).Eq(geom.Pt(500, 500)) {
		t.Errorf("Steiner point at %v, want (500,500)", topo.Point(4))
	}
}

func TestLShapedNetNeedsNoSteiner(t *testing.T) {
	// Collinear-ish pins where the MST is already optimal.
	pins := []geom.Point{{X: 0, Y: 0}, {X: 100, Y: 0}, {X: 200, Y: 0}}
	topo, err := Tree(pins, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumNodes() != 3 {
		t.Errorf("collinear net gained Steiner points: %d nodes", topo.NumNodes())
	}
	if topo.Cost() != 200 {
		t.Errorf("cost = %v", topo.Cost())
	}
}

func TestSteinerNeverWorseThanMSTProperty(t *testing.T) {
	f := func(seed int64) bool {
		gen := netlist.NewGenerator(seed)
		net, err := gen.Generate(8)
		if err != nil {
			return false
		}
		topo, err := Tree(net.Pins, Options{})
		if err != nil {
			return false
		}
		return topo.IsTree() && topo.Cost() <= mst.Cost(net.Pins)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSteinerRatioBound(t *testing.T) {
	// Rectilinear Steiner ratio: SMT ≥ 2/3 · MST. Any heuristic tree must
	// respect the lower bound (it cannot beat the optimum).
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		gen := netlist.NewGenerator(rng.Int63())
		net, err := gen.Generate(4 + rng.Intn(12))
		if err != nil {
			t.Fatal(err)
		}
		topo, err := Tree(net.Pins, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if topo.Cost() < (2.0/3.0)*mst.Cost(net.Pins)-1e-9 {
			t.Fatalf("cost %.0f below the Steiner-ratio bound for MST %.0f",
				topo.Cost(), mst.Cost(net.Pins))
		}
	}
}

func TestSpansAllPins(t *testing.T) {
	gen := netlist.NewGenerator(3)
	net, err := gen.Generate(15)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := Tree(net.Pins, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !topo.Connected() {
		t.Fatal("tree must span all pins")
	}
	if topo.NumPins() != 15 {
		t.Errorf("NumPins = %d", topo.NumPins())
	}
	for i, p := range net.Pins {
		if !topo.Point(i).Eq(p) {
			t.Errorf("pin %d relocated", i)
		}
	}
}

func TestNoUselessSteinerPoints(t *testing.T) {
	// After pruning and compaction every Steiner node must branch (deg ≥ 3).
	gen := netlist.NewGenerator(11)
	for trial := 0; trial < 10; trial++ {
		net, err := gen.Generate(10)
		if err != nil {
			t.Fatal(err)
		}
		topo, err := Tree(net.Pins, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for n := topo.NumPins(); n < topo.NumNodes(); n++ {
			if topo.Degree(n) < 3 {
				t.Fatalf("Steiner node %d has degree %d", n, topo.Degree(n))
			}
		}
	}
}

func TestTwoPinNet(t *testing.T) {
	topo, err := Tree([]geom.Point{{X: 0, Y: 0}, {X: 30, Y: 40}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if topo.Cost() != 70 || topo.NumNodes() != 2 {
		t.Errorf("two-pin: cost %v, %d nodes", topo.Cost(), topo.NumNodes())
	}
}

func TestTooFewPins(t *testing.T) {
	if _, err := Tree([]geom.Point{{X: 1, Y: 1}}, Options{}); err != ErrTooFewPins {
		t.Errorf("got %v", err)
	}
}

func TestPruneRemovesLeafSteiner(t *testing.T) {
	pins := []geom.Point{{X: 0, Y: 0}, {X: 100, Y: 0}}
	topo := graph.NewTopologyWithSteiner(pins, []geom.Point{{X: 50, Y: 50}})
	if err := topo.AddEdge(graph.Edge{U: 0, V: 1}); err != nil {
		t.Fatal(err)
	}
	if err := topo.AddEdge(graph.Edge{U: 0, V: 2}); err != nil {
		t.Fatal(err)
	}
	Prune(topo)
	if topo.Degree(2) != 0 {
		t.Error("leaf Steiner node must be pruned")
	}
	if !topo.HasEdge(graph.Edge{U: 0, V: 1}) {
		t.Error("pin edge must survive")
	}
}

func TestPruneShortsDegree2Steiner(t *testing.T) {
	pins := []geom.Point{{X: 0, Y: 0}, {X: 100, Y: 100}}
	topo := graph.NewTopologyWithSteiner(pins, []geom.Point{{X: 100, Y: 0}})
	if err := topo.AddEdge(graph.Edge{U: 0, V: 2}); err != nil {
		t.Fatal(err)
	}
	if err := topo.AddEdge(graph.Edge{U: 2, V: 1}); err != nil {
		t.Fatal(err)
	}
	costBefore := topo.Cost()
	Prune(topo)
	if topo.Degree(2) != 0 {
		t.Error("degree-2 Steiner node must be shorted")
	}
	if !topo.HasEdge(graph.Edge{U: 0, V: 1}) {
		t.Error("bridge edge must exist")
	}
	if topo.Cost() > costBefore+1e-9 {
		t.Errorf("pruning increased cost %v → %v", costBefore, topo.Cost())
	}
}

func TestDeterministic(t *testing.T) {
	gen1 := netlist.NewGenerator(23)
	net1, _ := gen1.Generate(10)
	gen2 := netlist.NewGenerator(23)
	net2, _ := gen2.Generate(10)
	t1, err := Tree(net1.Pins, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t2, err := Tree(net2.Pins, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if diff := sameTopology(t1, t2); diff != "" {
		t.Errorf("Steiner construction is not deterministic: %s", diff)
	}
}

// referenceTree is the plain Iterated 1-Steiner search Tree must reproduce:
// every round scores every candidate with a fresh mst.Cost.
func referenceTree(pins []geom.Point) (*graph.Topology, error) {
	if len(pins) < 2 {
		return nil, ErrTooFewPins
	}

	points := make([]geom.Point, len(pins))
	copy(points, pins)
	numPins := len(pins)

	candidates := geom.HananGrid(points)
	baseCost := mst.Cost(points)

	for {
		bestGain := 0.0
		bestIdx := -1
		for i, c := range candidates {
			gain := baseCost - mst.Cost(append(points, c))
			if gain > bestGain {
				bestGain = gain
				bestIdx = i
			}
		}
		if bestIdx < 0 {
			break
		}
		points = append(points, candidates[bestIdx])
		baseCost -= bestGain
		candidates = append(candidates[:bestIdx], candidates[bestIdx+1:]...)
	}

	return assemble(points, numPins)
}

// sameTopology reports how got differs from want: node points and order,
// pin count, edge list and the bits of Cost must all agree.
func sameTopology(got, want *graph.Topology) string {
	if got.NumPins() != want.NumPins() || got.NumNodes() != want.NumNodes() {
		return fmt.Sprintf("shape %d pins/%d nodes, want %d/%d",
			got.NumPins(), got.NumNodes(), want.NumPins(), want.NumNodes())
	}
	for n := 0; n < got.NumNodes(); n++ {
		if !got.Point(n).Eq(want.Point(n)) {
			return fmt.Sprintf("node %d at %v, want %v", n, got.Point(n), want.Point(n))
		}
	}
	if g, w := fmt.Sprint(got.Edges()), fmt.Sprint(want.Edges()); g != w {
		return fmt.Sprintf("edges %s, want %s", g, w)
	}
	if g, w := math.Float64bits(got.Cost()), math.Float64bits(want.Cost()); g != w {
		return fmt.Sprintf("cost bits %x, want %x", g, w)
	}
	return ""
}

// checkAgainstReference runs Tree and referenceTree on pins and fails on
// any difference, errors included.
func checkAgainstReference(t *testing.T, name string, pins []geom.Point) {
	t.Helper()
	got, gotErr := Tree(pins, Options{})
	want, wantErr := referenceTree(pins)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: error %v, want %v", name, gotErr, wantErr)
	}
	if wantErr != nil {
		return
	}
	if diff := sameTopology(got, want); diff != "" {
		t.Fatalf("%s: %s", name, diff)
	}
}

// gridPins draws up to n distinct pins on a g×g lattice of pitch 10, so
// coordinates repeat and many candidates tie on gain.
func gridPins(rng *rand.Rand, n, g int) []geom.Point {
	var pins []geom.Point
	for i := 0; i < n; i++ {
		pins = appendDistinct(pins, geom.Pt(float64(10*rng.Intn(g)), float64(10*rng.Intn(g))))
	}
	return pins
}

// appendDistinct appends p unless a pin already sits there: nets never
// hold two pins at one point.
func appendDistinct(pins []geom.Point, p geom.Point) []geom.Point {
	for _, q := range pins {
		if q.Eq(p) {
			return pins
		}
	}
	return append(pins, p)
}

func TestTreeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1994))
	sizes := []int{2, 3, 4, 5, 7, 10, 15, 20, 30, 40}
	if testing.Short() {
		sizes = sizes[:8]
	}
	for _, n := range sizes {
		for trial := 0; trial < 3; trial++ {
			net, err := netlist.NewGenerator(rng.Int63()).Generate(n)
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstReference(t, fmt.Sprintf("random %d-pin #%d", n, trial), net.Pins)
		}
	}
	for trial := 0; trial < 40; trial++ {
		pins := gridPins(rng, 3+rng.Intn(13), 3+rng.Intn(5))
		checkAgainstReference(t, fmt.Sprintf("grid #%d %v", trial, pins), pins)
	}
	for _, pins := range [][]geom.Point{
		{geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(25, 0), geom.Pt(40, 0), geom.Pt(70, 0)},
		{geom.Pt(5, 90), geom.Pt(5, 0), geom.Pt(5, 30), geom.Pt(5, 60)},
		{geom.Pt(0, 0), geom.Pt(10, 10), geom.Pt(20, 20), geom.Pt(30, 30), geom.Pt(45, 45)},
		{geom.Pt(0, 40), geom.Pt(10, 30), geom.Pt(20, 20), geom.Pt(40, 0)},
	} {
		checkAgainstReference(t, fmt.Sprintf("collinear %v", pins), pins)
	}
}

// searchNets returns random nets of 3 to 30 pins, tie-heavy lattice nets of
// the same sizes, and collinear nets.
func searchNets(t *testing.T, rng *rand.Rand) [][]geom.Point {
	t.Helper()
	var nets [][]geom.Point
	for _, n := range []int{3, 5, 8, 12, 20, 30} {
		net, err := netlist.NewGenerator(rng.Int63()).Generate(n)
		if err != nil {
			t.Fatal(err)
		}
		nets = append(nets, net.Pins, gridPins(rng, n, 4+rng.Intn(4)))
	}
	return append(nets,
		[]geom.Point{geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(25, 0), geom.Pt(40, 0), geom.Pt(70, 0)},
		[]geom.Point{geom.Pt(0, 0), geom.Pt(10, 10), geom.Pt(20, 20), geom.Pt(30, 30), geom.Pt(45, 45)},
		[]geom.Point{geom.Pt(0, 40), geom.Pt(10, 30), geom.Pt(20, 20), geom.Pt(40, 0)},
	)
}

func TestEstimateIsMSTCost(t *testing.T) {
	// The filter is sound only if every estimate is the MST cost of the
	// points plus its candidate, up to summation rounding; the carried-over
	// weights are sound only if every estimate has the bits a fresh one
	// would. Accepting random candidates, not only the best, exercises star
	// updates on point sets the search itself would not reach.
	rng := rand.New(rand.NewSource(42))
	for _, pins := range searchNets(t, rng) {
		s := newSearch(append([]geom.Point(nil), pins...))
		for round := 0; round < 8 && len(s.candidates) > 0; round++ {
			s.estimate()
			n := len(s.points)
			for i, c := range s.candidates {
				got := s.est[i]
				without, with := s.weights(&s.stars[i])
				if fresh := s.treeCost - without + with; math.Float64bits(got) != math.Float64bits(fresh) {
					t.Fatalf("%v round %d candidate %v: carried estimate %v, fresh %v", pins, round, c, got, fresh)
				}
				want := mst.Cost(append(s.points[:n:n], c))
				if math.Abs(got-want) > 1e-12*want {
					t.Fatalf("%v round %d candidate %v: estimate %v, MST cost %v", pins, round, c, got, want)
				}
			}
			i, _ := s.best(s.treeCost)
			if round%2 == 1 || i < 0 {
				i = rng.Intn(len(s.candidates))
			}
			s.accept(i)
		}
	}
}

func TestCostWithIsMSTCost(t *testing.T) {
	// The cost finished from the shared Prim prefix must have the bits of a
	// fresh mst.Cost for every candidate, in every round of the search.
	// Probing the points themselves and a far point also covers a new point
	// that joins at the first step and one that joins last.
	rng := rand.New(rand.NewSource(5))
	for _, pins := range searchNets(t, rng) {
		s := newSearch(append([]geom.Point(nil), pins...))
		for round := 0; ; round++ {
			s.estimate()
			n := len(s.points)
			probes := append(append(append([]geom.Point(nil), s.candidates...), s.points...), geom.Pt(1e6, -1e6))
			for _, c := range probes {
				got := s.prefix.costWith(s.points, c)
				want := mst.Cost(append(s.points[:n:n], c))
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%v round %d point %v: prefix cost %v, mst.Cost %v", pins, round, c, got, want)
				}
			}
			i, _ := s.best(s.treeCost)
			if i < 0 {
				break
			}
			s.accept(i)
		}
	}
}

func TestTreeAllocations(t *testing.T) {
	// A Tree call sizes its round buffers once, and the exact rechecks
	// allocate nothing. The bounds are this net's measured 315 allocations
	// and 246,968 bytes, plus about 2%.
	net, err := netlist.NewGenerator(42).Generate(30)
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		if _, err := Tree(net.Pins, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	const maxAllocs, maxBytes = 321, 252_000
	if n := testing.AllocsPerRun(5, run); n > maxAllocs {
		t.Errorf("30-pin Tree: %v allocations, want at most %d", n, maxAllocs)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n > maxBytes {
		t.Errorf("30-pin Tree: %d bytes allocated, want at most %d", n, maxBytes)
	}
}

func FuzzTreeVsReference(f *testing.F) {
	f.Add([]byte{0, 0, 4, 0, 0, 4, 4, 4, 2, 2})
	f.Add([]byte{1, 1, 1, 1, 3, 0, 0, 3, 5, 5, 7, 2})
	f.Add([]byte{0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Each byte pair is one pin on an 8×8 lattice; at most 32 pins.
		if len(data) > 64 {
			data = data[:64]
		}
		var pins []geom.Point
		for i := 0; i+1 < len(data); i += 2 {
			pins = appendDistinct(pins, geom.Pt(float64(data[i]%8)*7, float64(data[i+1]%8)*7))
		}
		checkAgainstReference(t, fmt.Sprint(pins), pins)
	})
}
