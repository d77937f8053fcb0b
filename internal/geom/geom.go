// Package geom provides Manhattan-plane geometry primitives for VLSI
// routing: points, rectilinear distances, bounding boxes, and the Hanan
// grid used by Steiner-tree construction.
//
// Coordinates are in micrometers (µm) throughout, matching the paper's
// 10mm × 10mm layout region (10,000 µm on a side).
package geom

import (
	"cmp"
	"fmt"
	"math"
	"slices"
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

// Hanan builds Hanan grids: all intersections of horizontal and vertical
// lines through a set of points. Hanan's theorem guarantees an optimal
// rectilinear Steiner tree uses only such points, so they are the
// candidate set for the Iterated 1-Steiner heuristic. A Hanan keeps the
// storage of its last construction for reuse: the distinct coordinates
// and the input points in (X, Y) order. The zero value is ready for use.
type Hanan struct {
	xs, ys []float64
	sorted []Point
}

// AppendGrid appends the Hanan grid of pts to dst and returns the
// extended slice. Points coinciding with an input point are excluded; the
// grid is ordered by (X, Y) and holds no duplicates. The coordinates are
// sorted and the grid walked in (X, Y) order against the input points
// sorted the same way, so excluding the input points takes a merge, not a
// set; the points must be finite. Once h and dst have held a grid as
// large, it allocates nothing.
func (h *Hanan) AppendGrid(dst, pts []Point) []Point {
	h.xs, h.ys = h.xs[:0], h.ys[:0]
	for _, p := range pts {
		h.xs, h.ys = append(h.xs, p.X), append(h.ys, p.Y)
	}
	xs, ys := uniqueSorted(h.xs), uniqueSorted(h.ys)
	h.sorted = append(h.sorted[:0], pts...)
	slices.SortFunc(h.sorted, func(a, b Point) int {
		if c := cmp.Compare(a.X, b.X); c != 0 {
			return c
		}
		return cmp.Compare(a.Y, b.Y)
	})
	next := h.sorted
	for _, x := range xs {
		for _, y := range ys {
			for len(next) > 0 && (next[0].X < x || next[0].X == x && next[0].Y < y) {
				next = next[1:]
			}
			if len(next) > 0 && next[0].X == x && next[0].Y == y {
				continue
			}
			dst = append(dst, Point{x, y})
		}
	}
	return dst
}

// uniqueSorted sorts vals in place and returns its distinct values, the
// first of each run of equal ones, in vals' storage.
func uniqueSorted(vals []float64) []float64 {
	if len(vals) == 0 {
		return nil
	}
	// Insertion sort: candidate sets are small (tens of coordinates).
	for i := 1; i < len(vals); i++ {
		for j := i; j > 0 && vals[j] < vals[j-1]; j-- {
			vals[j], vals[j-1] = vals[j-1], vals[j]
		}
	}
	out := vals[:1]
	for _, v := range vals[1:] {
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}
