// Package fpcmp is the approved epsilon-comparison helper enforced by the
// floatcmp analyzer (DESIGN.md §8). Delay and score values in this
// repository are computed through long floating-point reductions; two
// mathematically equal results can differ in the last few ulps depending
// on evaluation order, so algorithm code must never branch on exact
// equality. These helpers compare within a relative tolerance wide enough
// to absorb reduction noise and narrow enough to distinguish any two
// delays the oracles can meaningfully separate.
package fpcmp

import "math"

// DefaultTol is the relative tolerance used by Eq: a few orders of
// magnitude above double rounding error (2⁻⁵² ≈ 2.2e-16), far below the
// 1e-9 minImprovement threshold the greedy loops use to accept an edge.
const DefaultTol = 1e-12

// Eq reports whether a and b are equal within DefaultTol relative
// tolerance (absolute near zero). Infinities of the same sign are equal;
// NaN equals nothing.
func Eq(a, b float64) bool { return EqTol(a, b, DefaultTol) }

// EqTol reports |a−b| ≤ tol·max(1, |a|, |b|). The max(1, ·) floor makes
// the tolerance absolute for magnitudes below one, which suits this
// repository's delay values (seconds, ≤ 1e-6) and ratio metrics (≈ 1).
func EqTol(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	if a == b { // exact fast path; inexact cases fall through to the tolerance test
		return true
	}
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return false // opposite or single infinity
	}
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= tol*scale
}

// Zero reports whether v is zero within DefaultTol (absolute).
func Zero(v float64) bool { return EqTol(v, 0, DefaultTol) }
