// Package geom provides Manhattan-plane geometry primitives for VLSI
// routing: points, rectilinear distances, bounding boxes, and the Hanan
// grid used by Steiner-tree construction.
//
// Coordinates are in micrometers (µm) throughout, matching the paper's
// 10mm × 10mm layout region (10,000 µm on a side).
package geom

import (
	"fmt"
	"math"
)

// Point is a location in the Manhattan plane, in micrometers.
type Point struct {
	X, Y float64
}

// Pt is a convenience constructor for Point.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// String renders the point as "(x, y)".
func (p Point) String() string { return fmt.Sprintf("(%g, %g)", p.X, p.Y) }

// Dist returns the Manhattan (L1, rectilinear) distance between p and q.
// This is the wirelength of a shortest rectilinear route between them.
func Dist(p, q Point) float64 {
	return math.Abs(p.X-q.X) + math.Abs(p.Y-q.Y)
}

// Eq reports whether p and q coincide exactly.
func (p Point) Eq(q Point) bool { return p.X == q.X && p.Y == q.Y }

// Rect is an axis-aligned rectangle. Min is the lower-left corner and Max
// the upper-right; a valid Rect has Min.X <= Max.X and Min.Y <= Max.Y.
type Rect struct {
	Min, Max Point
}

// Width returns the horizontal extent of r.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the vertical extent of r.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// HalfPerimeter returns the half-perimeter of r, a classical lower bound on
// the wirelength of any net whose pins r bounds.
func (r Rect) HalfPerimeter() float64 { return r.Width() + r.Height() }

// Contains reports whether p lies inside r (boundary inclusive).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// BoundingBox returns the smallest Rect containing every point in pts.
// It returns a zero Rect when pts is empty.
func BoundingBox(pts []Point) Rect {
	if len(pts) == 0 {
		return Rect{}
	}
	r := Rect{Min: pts[0], Max: pts[0]}
	for _, p := range pts[1:] {
		r.Min.X = math.Min(r.Min.X, p.X)
		r.Min.Y = math.Min(r.Min.Y, p.Y)
		r.Max.X = math.Max(r.Max.X, p.X)
		r.Max.Y = math.Max(r.Max.Y, p.Y)
	}
	return r
}

// HananGrid returns the Hanan grid of pts: all intersections of horizontal
// and vertical lines through the input points. Hanan's theorem guarantees an
// optimal rectilinear Steiner tree uses only such points, so they are the
// candidate set for the Iterated 1-Steiner heuristic.
//
// Points coinciding with an input point are excluded. The result is ordered
// by (X, Y) and contains no duplicates.
func HananGrid(pts []Point) []Point {
	xs := uniqueSorted(coords(pts, func(p Point) float64 { return p.X }))
	ys := uniqueSorted(coords(pts, func(p Point) float64 { return p.Y }))

	existing := make(map[Point]bool, len(pts))
	for _, p := range pts {
		existing[p] = true
	}

	// Each distinct input point occupies one grid position; counting
	// repeated points instead could make the capacity negative.
	grid := make([]Point, 0, len(xs)*len(ys)-len(existing))
	for _, x := range xs {
		for _, y := range ys {
			p := Point{x, y}
			if !existing[p] {
				grid = append(grid, p)
			}
		}
	}
	return grid
}

func coords(pts []Point, get func(Point) float64) []float64 {
	out := make([]float64, len(pts))
	for i, p := range pts {
		out[i] = get(p)
	}
	return out
}

func uniqueSorted(vals []float64) []float64 {
	if len(vals) == 0 {
		return nil
	}
	sorted := make([]float64, len(vals))
	copy(sorted, vals)
	// Insertion sort: candidate sets are small (tens of coordinates).
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	out := sorted[:1]
	for _, v := range sorted[1:] {
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}
