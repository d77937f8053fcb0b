package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

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

func TestMetricOrdering(t *testing.T) {
	// Chebyshev ≤ Euclid ≤ Manhattan for all point pairs.
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		p, q := randPoint(rng), randPoint(rng)
		ch, eu, ma := Chebyshev(p, q), Euclid(p, q), Dist(p, q)
		if ch > eu+1e-9 || eu > ma+1e-9 {
			t.Fatalf("metric ordering violated for %v %v: L∞=%v L2=%v L1=%v", p, q, ch, eu, ma)
		}
	}
}

func TestVectorOps(t *testing.T) {
	p, q := Pt(1, 2), Pt(3, -4)
	if got := p.Add(q); !got.Eq(Pt(4, -2)) {
		t.Errorf("Add = %v", got)
	}
	if got := p.Sub(q); !got.Eq(Pt(-2, 6)) {
		t.Errorf("Sub = %v", got)
	}
	if got := p.Scale(2); !got.Eq(Pt(2, 4)) {
		t.Errorf("Scale = %v", got)
	}
}

func TestLerp(t *testing.T) {
	p, q := Pt(0, 0), Pt(10, 20)
	if got := Lerp(p, q, 0); !got.Eq(p) {
		t.Errorf("Lerp t=0: %v", got)
	}
	if got := Lerp(p, q, 1); !got.Eq(q) {
		t.Errorf("Lerp t=1: %v", got)
	}
	if got := Lerp(p, q, 0.5); !got.Eq(Pt(5, 10)) {
		t.Errorf("Lerp t=0.5: %v", got)
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

func TestRectExpandContains(t *testing.T) {
	r := Rect{Min: Pt(0, 0), Max: Pt(10, 10)}
	e := r.Expand(5)
	if !e.Contains(Pt(-5, -5)) || !e.Contains(Pt(15, 15)) {
		t.Errorf("Expand: %+v", e)
	}
	if e.Contains(Pt(-5.01, 0)) {
		t.Error("Expand boundary exceeded")
	}
}

func TestHananGrid(t *testing.T) {
	// Three points in general position: 3x3 grid minus the 3 inputs = 6.
	pts := []Point{Pt(0, 0), Pt(10, 5), Pt(20, 15)}
	grid := HananGrid(pts)
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
	if grid := HananGrid(pts); len(grid) != 0 {
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
		grid := HananGrid(tc.pts)
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
		grid := HananGrid(pts)
		if want := n*n - n; len(grid) != want {
			t.Fatalf("n=%d: grid size %d, want %d", n, len(grid), want)
		}
	}
}

func TestSnapToGrid(t *testing.T) {
	cases := []struct {
		p     Point
		pitch float64
		want  Point
	}{
		{Pt(12, 18), 10, Pt(10, 20)},
		{Pt(15, 15), 10, Pt(20, 20)}, // round half away handled by math.Round
		{Pt(-12, -18), 10, Pt(-10, -20)},
		{Pt(7, 3), 0, Pt(7, 3)}, // non-positive pitch: unchanged
		{Pt(7, 3), -5, Pt(7, 3)},
	}
	for _, c := range cases {
		if got := SnapToGrid(c.p, c.pitch); !got.Eq(c.want) {
			t.Errorf("SnapToGrid(%v, %v) = %v, want %v", c.p, c.pitch, got, c.want)
		}
	}
}

func TestPathLength(t *testing.T) {
	pts := []Point{Pt(0, 0), Pt(3, 0), Pt(3, 4)}
	if got := PathLength(pts); got != 7 {
		t.Errorf("PathLength = %v, want 7", got)
	}
	if got := PathLength(nil); got != 0 {
		t.Errorf("empty PathLength = %v", got)
	}
	if got := PathLength(pts[:1]); got != 0 {
		t.Errorf("single-point PathLength = %v", got)
	}
}

func TestMedianOddEven(t *testing.T) {
	odd := []Point{Pt(0, 0), Pt(10, 2), Pt(4, 8)}
	if got := Median(odd); !got.Eq(Pt(4, 2)) {
		t.Errorf("odd median = %v, want (4,2)", got)
	}
	even := []Point{Pt(0, 0), Pt(10, 10)}
	if got := Median(even); !got.Eq(Pt(5, 5)) {
		t.Errorf("even median = %v, want (5,5)", got)
	}
	if got := Median(nil); !got.Eq(Pt(0, 0)) {
		t.Errorf("empty median = %v", got)
	}
}

func TestMedianMinimizesL1Property(t *testing.T) {
	// The coordinate-wise median minimizes total Manhattan distance.
	rng := rand.New(rand.NewSource(4))
	total := func(c Point, pts []Point) float64 {
		var s float64
		for _, p := range pts {
			s += Dist(c, p)
		}
		return s
	}
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(9)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = randPoint(rng)
		}
		m := Median(pts)
		base := total(m, pts)
		// Perturbations must not improve.
		for _, d := range []Point{Pt(1, 0), Pt(-1, 0), Pt(0, 1), Pt(0, -1), Pt(13, -7)} {
			if total(m.Add(d), pts) < base-1e-9 {
				t.Fatalf("median %v not optimal for %v (perturbation %v improves)", m, pts, d)
			}
		}
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
	if grid := HananGrid(pts); len(grid) != 0 {
		t.Errorf("shared-X pair must give empty grid, got %v", grid)
	}
	pts = []Point{Pt(5, 0), Pt(5, 10), Pt(7, 10)}
	grid := HananGrid(pts)
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
