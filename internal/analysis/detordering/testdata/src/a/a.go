// Package a exercises the detordering analyzer: map iteration feeding
// order-sensitive computation is flagged; order-independent bodies and the
// sorted-keys idiom are clean.
package a

import (
	"fmt"
	"sort"
)

type edge struct{ u, v int }

// Flagged: candidate generation straight out of a map.
func candidatesFromMap(present map[edge]bool) []edge {
	var cands []edge
	for e := range present {
		cands = append(cands, e) // want `append to cands inside iteration over map present`
	}
	return cands
}

// Clean: the canonical sorted-iteration idiom — append then sort.
func sortedKeys(scores map[string]float64) []string {
	keys := make([]string, 0, len(scores))
	for k := range scores {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Flagged: floating-point score accumulation is order-dependent.
func totalScore(scores map[string]float64) float64 {
	var sum float64
	for _, s := range scores {
		sum += s // want `order-dependent accumulation into sum`
	}
	return sum
}

// Clean: exact integer accumulation commutes.
func countPins(degree map[int]int) int {
	n := 0
	for _, d := range degree {
		n += d
	}
	return n
}

// Clean: map-to-map transfer is order-independent.
func invert(m map[int]string) map[string]int {
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[v] = k
	}
	return out
}

// Flagged: last-write-wins on an outer variable depends on order.
func anyKey(m map[int]bool) int {
	best := -1
	for k := range m {
		best = k // want `assignment to outer variable best`
	}
	return best
}

// Flagged: early return of a loop-derived value picks a random element.
func firstMatch(m map[int]float64, limit float64) int {
	for k, v := range m {
		if v > limit {
			return k // want `return of a value derived from the loop variables`
		}
	}
	return -1
}

// Flagged: statement-level calls can observe iteration order.
func dumpAll(m map[string]int) {
	for k, v := range m {
		fmt.Println(k, v) // want `call to fmt.Println with potential side effects`
	}
}

// Clean: delete during iteration is sanctioned by the spec and
// order-independent for this filter.
func prune(m map[int]float64) {
	for k, v := range m {
		if v <= 0 {
			delete(m, k)
		}
	}
}

// Clean: annotated exemption with a justification.
func annotated(m map[int]float64) float64 {
	var sum float64
	//nontree:allow detordering the summands are exact powers of two, so order cannot change the result
	for _, v := range m {
		sum += v
	}
	return sum
}

// Flagged: an annotation without a justification does not suppress.
func annotatedBadly(m map[int]float64) float64 {
	var sum float64
	//nontree:allow detordering
	for _, v := range m {
		sum += v // want `order-dependent accumulation into sum`
	}
	return sum
}

// Clean: a slice range is not a map range, whatever the body does.
func sliceAppend(in []int) []int {
	var out []int
	for _, v := range in {
		out = append(out, v*2)
	}
	return out
}

// Flagged: appending to a slice that is never sorted afterwards.
func unsortedValues(m map[string]float64) []float64 {
	var vals []float64
	for _, v := range m {
		vals = append(vals, v) // want `append to vals inside iteration over map m`
	}
	return vals
}

// Flagged: channel sends publish elements in random order.
func streamKeys(m map[int]bool, ch chan int) {
	for k := range m {
		ch <- k // want `channel send`
	}
}

// Flagged: appending through an out-parameter fills the caller's slice in
// map order, however many frames up that caller sits.
func fillKeys(m map[int]string, out *[]int) {
	for k := range m {
		*out = append(*out, k) // want `append to out inside iteration over map m`
	}
}

// Flagged: handing the slice to another call is not sorting it; a
// pass-through returns the map order unchanged.
func launder(m map[int]string) []int {
	var ks []int
	for k := range m {
		ks = append(ks, k) // want `append to ks inside iteration over map m`
	}
	return ident(ks)
}

func ident(x []int) []int { return x }
