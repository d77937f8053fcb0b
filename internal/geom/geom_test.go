package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// hananGrid is the Hanan grid of pts on fresh storage.
func hananGrid(pts []Point) []Point { return new(Hanan).AppendGrid(nil, pts) }

func TestDistBasics(t *testing.T) {
	cases := []struct {
		p, q Point
		want float64
	}{
		{Pt(0, 0), Pt(0, 0), 0},
		{Pt(0, 0), Pt(3, 4), 7},
		{Pt(-1, -1), Pt(1, 1), 4},
		{Pt(2.5, 0), Pt(0, 2.5), 5},
		{Pt(10, 20), Pt(10, 25), 5},
	}
	for _, c := range cases {
		if got := Dist(c.p, c.q); got != c.want {
			t.Errorf("Dist(%v, %v) = %v, want %v", c.p, c.q, got, c.want)
		}
	}
}

func randPoint(rng *rand.Rand) Point {
	return Pt(rng.Float64()*1e4-5e3, rng.Float64()*1e4-5e3)
}

func TestDistMetricAxiomsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func() bool {
		p, q, r := randPoint(rng), randPoint(rng), randPoint(rng)
		// Symmetry.
		if Dist(p, q) != Dist(q, p) {
			return false
		}
		// Non-negativity and identity.
		if Dist(p, q) < 0 || Dist(p, p) != 0 {
			return false
		}
		// Triangle inequality (with float slack).
		return Dist(p, r) <= Dist(p, q)+Dist(q, r)+1e-9
	}
	cfg := &quick.Config{MaxCount: 500}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestBoundingBox(t *testing.T) {
	pts := []Point{Pt(3, 7), Pt(-2, 4), Pt(5, -1)}
	r := BoundingBox(pts)
	if !r.Min.Eq(Pt(-2, -1)) || !r.Max.Eq(Pt(5, 7)) {
		t.Errorf("BoundingBox = %+v", r)
	}
	if r.Width() != 7 || r.Height() != 8 || r.HalfPerimeter() != 15 {
		t.Errorf("dims: w=%v h=%v hp=%v", r.Width(), r.Height(), r.HalfPerimeter())
	}
	for _, p := range pts {
		if !r.Contains(p) {
			t.Errorf("box must contain %v", p)
		}
	}
	if (BoundingBox(nil) != Rect{}) {
		t.Error("empty input must give zero Rect")
	}
}

func TestHananGrid(t *testing.T) {
	// Three points in general position: 3x3 grid minus the 3 inputs = 6.
	pts := []Point{Pt(0, 0), Pt(10, 5), Pt(20, 15)}
	grid := hananGrid(pts)
	if len(grid) != 6 {
		t.Fatalf("Hanan grid size %d, want 6: %v", len(grid), grid)
	}
	seen := map[Point]bool{}
	for _, g := range grid {
		if seen[g] {
			t.Fatalf("duplicate grid point %v", g)
		}
		seen[g] = true
		for _, p := range pts {
			if g.Eq(p) {
				t.Fatalf("grid contains input point %v", g)
			}
		}
	}
	// Every grid point's coordinates come from input coordinates.
	xok := map[float64]bool{0: true, 10: true, 20: true}
	yok := map[float64]bool{0: true, 5: true, 15: true}
	for _, g := range grid {
		if !xok[g.X] || !yok[g.Y] {
			t.Fatalf("grid point %v has non-Hanan coordinates", g)
		}
	}
}

func TestHananGridCollinear(t *testing.T) {
	// Collinear points share a coordinate: grid is empty.
	pts := []Point{Pt(0, 0), Pt(5, 0), Pt(9, 0)}
	if grid := hananGrid(pts); len(grid) != 0 {
		t.Errorf("collinear points must give empty grid, got %v", grid)
	}
}

func TestHananGridRepeatedPoints(t *testing.T) {
	// Repeated input points must neither panic nor change the grid: it is
	// every (x, y) over the input coordinates that is not an input point.
	cases := []struct {
		name string
		pts  []Point
	}{
		{"two coincident", []Point{Pt(0, 0), Pt(0, 0)}},
		{"all coincident", []Point{Pt(3, 4), Pt(3, 4), Pt(3, 4), Pt(3, 4)}},
		{"repeat among distinct", []Point{Pt(0, 0), Pt(10, 5), Pt(0, 0), Pt(20, 15)}},
		{"repeats on shared lines", []Point{Pt(0, 0), Pt(0, 7), Pt(0, 7), Pt(5, 0), Pt(5, 0), Pt(5, 0)}},
		{"single", []Point{Pt(1, 1)}},
	}
	for _, tc := range cases {
		want := map[Point]bool{}
		for _, a := range tc.pts {
			for _, b := range tc.pts {
				want[Pt(a.X, b.Y)] = true
			}
		}
		for _, p := range tc.pts {
			delete(want, p)
		}
		grid := hananGrid(tc.pts)
		got := map[Point]bool{}
		for _, g := range grid {
			got[g] = true
		}
		if len(got) != len(grid) || len(got) != len(want) {
			t.Errorf("%s: grid %v, want the %d points %v", tc.name, grid, len(want), want)
			continue
		}
		for p := range want {
			if !got[p] {
				t.Errorf("%s: grid %v lacks %v", tc.name, grid, p)
			}
		}
	}
}

func TestHananGridSizeProperty(t *testing.T) {
	// |grid| = |X|·|Y| − n for n points with distinct coordinates.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(8)
		pts := make([]Point, 0, n)
		usedX := map[float64]bool{}
		usedY := map[float64]bool{}
		for len(pts) < n {
			p := Pt(float64(rng.Intn(1000)), float64(rng.Intn(1000)))
			if usedX[p.X] || usedY[p.Y] {
				continue
			}
			usedX[p.X] = true
			usedY[p.Y] = true
			pts = append(pts, p)
		}
		grid := hananGrid(pts)
		if want := n*n - n; len(grid) != want {
			t.Fatalf("n=%d: grid size %d, want %d", n, len(grid), want)
		}
	}
}

// mapHananGrid is the grid as a set lookup finds it: the sorted distinct
// coordinates crossed, minus every point a map of the inputs holds.
func mapHananGrid(pts []Point) []Point {
	xs := uniqueSorted(coordsOf(pts, func(p Point) float64 { return p.X }))
	ys := uniqueSorted(coordsOf(pts, func(p Point) float64 { return p.Y }))
	existing := map[Point]bool{}
	for _, p := range pts {
		existing[p] = true
	}
	var grid []Point
	for _, x := range xs {
		for _, y := range ys {
			if p := (Point{x, y}); !existing[p] {
				grid = append(grid, p)
			}
		}
	}
	return grid
}

func coordsOf(pts []Point, get func(Point) float64) []float64 {
	out := make([]float64, len(pts))
	for i, p := range pts {
		out[i] = get(p)
	}
	return out
}

// TestAppendGridMatchesMapLookup builds the grids of random point sets,
// with repeated points, shared lines and both signed zeros, into one
// reused Hanan and one reused slice, and checks each against the map
// lookup bit for bit. Once the storage has held the largest grid,
// rebuilding it allocates nothing.
func TestAppendGridMatchesMapLookup(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	var h Hanan
	var grid []Point
	coord := func() float64 {
		switch v := rng.Intn(12); v {
		case 0:
			return math.Copysign(0, -1)
		default:
			return float64(v - 1)
		}
	}
	var largest []Point
	for trial := 0; trial < 300; trial++ {
		pts := make([]Point, 1+rng.Intn(14))
		for i := range pts {
			pts[i] = Pt(coord(), coord())
		}
		if len(pts) > len(largest) {
			largest = pts
		}
		grid = h.AppendGrid(grid[:0], pts)
		want := mapHananGrid(pts)
		if len(grid) != len(want) {
			t.Fatalf("%v: grid %v, want %v", pts, grid, want)
		}
		for i := range want {
			if math.Float64bits(grid[i].X) != math.Float64bits(want[i].X) || math.Float64bits(grid[i].Y) != math.Float64bits(want[i].Y) {
				t.Fatalf("%v: grid point %d is %v, want %v", pts, i, grid[i], want[i])
			}
		}
	}
	grid = h.AppendGrid(grid[:0], largest)
	if n := testing.AllocsPerRun(20, func() { grid = h.AppendGrid(grid[:0], largest) }); n != 0 {
		t.Errorf("a warm AppendGrid makes %v allocations, want 0", n)
	}
}

func TestPointString(t *testing.T) {
	if got := Pt(1.5, -2).String(); got != "(1.5, -2)" {
		t.Errorf("String = %q", got)
	}
}

func TestUniqueSortedViaHanan(t *testing.T) {
	// Duplicate coordinates must collapse: two points sharing X give a
	// 1×2 coordinate lattice.
	pts := []Point{Pt(5, 0), Pt(5, 10)}
	if grid := hananGrid(pts); len(grid) != 0 {
		t.Errorf("shared-X pair must give empty grid, got %v", grid)
	}
	pts = []Point{Pt(5, 0), Pt(5, 10), Pt(7, 10)}
	grid := hananGrid(pts)
	// Lattice {5,7}×{0,10} = 4 points minus 3 inputs = 1: (7,0).
	if len(grid) != 1 || !grid[0].Eq(Pt(7, 0)) {
		t.Errorf("grid = %v, want [(7,0)]", grid)
	}
}

func TestDistNaNSafety(t *testing.T) {
	d := Dist(Pt(math.NaN(), 0), Pt(0, 0))
	if !math.IsNaN(d) {
		t.Errorf("NaN input should propagate, got %v", d)
	}
}
