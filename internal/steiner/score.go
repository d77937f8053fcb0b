package steiner

import (
	"math"

	"nontree/internal/geom"
	"nontree/internal/mst"
)

// recheckMargin is how far above the round's smallest estimate, relative to
// the current MST cost, a candidate's estimate may lie and still be
// re-evaluated exactly. Estimate and exact cost are the same MST weight,
// built from the same rounded distances but summed in different orders, so
// they differ by at most about n·2⁻⁵³·baseCost — some 10⁶ times less than
// this margin for the nets routed here.
const recheckMargin = 1e-9

// search holds the state of one Iterated 1-Steiner run: the points placed so
// far (pins, then accepted Steiner points), the remaining candidates, and
// for each candidate its star. A star changes only when a point is added,
// so it is updated in O(1) per round.
type search struct {
	points     []geom.Point
	candidates []geom.Point
	stars      []star

	treeCost float64   // weight of the MST of points
	maxEdge  []float64 // maxEdge[u*n+v]: heaviest edge on that MST's u–v path
}

// star is a candidate's nearest point in each of its eight octants. In the
// Manhattan metric two points in the same closed 45° wedge around c are
// never farther from each other than the farther one is from c, so some MST
// of points ∪ {c} joins c only to these ends.
type star struct {
	end  [8]int // index into points, -1 when the octant is empty
	dist [8]float64
}

// newSearch starts a search over points with their Hanan grid as candidates.
func newSearch(points []geom.Point) *search {
	s := &search{points: points}
	s.setCandidates(geom.HananGrid(points))
	return s
}

// setCandidates replaces the candidate list and computes every star.
func (s *search) setCandidates(candidates []geom.Point) {
	s.candidates = candidates
	s.stars = make([]star, len(candidates))
	for i, c := range candidates {
		st := &s.stars[i]
		for o := range st.end {
			st.end[o] = -1
		}
		for j, p := range s.points {
			st.add(c, j, p)
		}
	}
}

// add offers point j, at p, to the star of candidate c.
func (st *star) add(c geom.Point, j int, p geom.Point) {
	dx, dy := p.X-c.X, p.Y-c.Y
	o := 0
	if dx < 0 {
		o = 4
	}
	if dy < 0 {
		o += 2
	}
	if math.Abs(dy) > math.Abs(dx) {
		o++
	}
	if d := geom.Dist(c, p); st.end[o] < 0 || d < st.dist[o] {
		st.end[o], st.dist[o] = j, d
	}
}

// accept adds candidate i to the points. The remaining candidates are the
// old ones minus i, or with regenerate the Hanan grid of the new points.
func (s *search) accept(i int, regenerate bool) {
	c := s.candidates[i]
	s.points = append(s.points, c)
	if regenerate {
		s.setCandidates(geom.HananGrid(s.points))
		return
	}
	s.candidates = append(s.candidates[:i], s.candidates[i+1:]...)
	s.stars = append(s.stars[:i], s.stars[i+1:]...)
	j := len(s.points) - 1
	for k, cand := range s.candidates {
		s.stars[k].add(cand, j, c)
	}
}

// best returns the index of the candidate whose addition most reduces the
// MST cost of the points, and that reduction, or -1 when none reduces it.
// The result is exactly that of scoring every candidate c, in order, by
// baseCost − mst.Cost(points ∪ {c}) and keeping the first strict maximum
// above zero: every candidate that rule could pick has an estimate within
// the margin, and those are the ones scored that way here.
func (s *search) best(baseCost float64) (int, float64) {
	s.buildTree()
	est := make([]float64, len(s.stars))
	minEst := baseCost // a candidate costing more than baseCost has no gain
	for i := range s.stars {
		est[i] = s.estimate(&s.stars[i])
		minEst = math.Min(minEst, est[i])
	}
	limit := minEst + recheckMargin*baseCost

	bestGain := 0.0
	bestIdx := -1
	for i, c := range s.candidates {
		if est[i] > limit {
			continue
		}
		gain := baseCost - mst.Cost(append(s.points, c))
		if gain > bestGain {
			bestGain = gain
			bestIdx = i
		}
	}
	return bestIdx, bestGain
}

// estimate returns the MST cost of the points plus the star's candidate.
// Adding the ≤ 8 star edges to the MST T changes only edges on T-paths
// between the star's ends. With K the complete graph on the ends weighted
// by maxEdge, and H that graph plus the candidate and its star edges,
// the cost is w(T) − w(MST(K)) + w(MST(H)): two Prims over at most 9 nodes.
func (s *search) estimate(st *star) float64 {
	// The star's ends are nodes 0..k-1 of K and H; the candidate is node k.
	var ends [8]int
	var dist [8]float64
	k := 0
	for o, j := range st.end {
		if j >= 0 {
			ends[k], dist[k] = j, st.dist[o]
			k++
		}
	}
	var w [9][9]float64
	n := len(s.points)
	for a := 1; a < k; a++ {
		row := s.maxEdge[ends[a]*n:]
		for b := 0; b < a; b++ {
			w[a][b] = row[ends[b]]
			w[b][a] = w[a][b]
		}
	}
	withoutC := prim(k, &w)
	for a := 0; a < k; a++ {
		w[k][a], w[a][k] = dist[a], dist[a]
	}
	return s.treeCost - withoutC + prim(k+1, &w)
}

// prim returns the MST weight of the complete graph on nodes 0..m-1 whose
// edge weights are w's upper-left m×m block.
func prim(m int, w *[9][9]float64) float64 {
	// left[:r] are the nodes not yet joined, best[i] left[i]'s cheapest edge
	// to the tree.
	var left [8]int
	var best [8]float64
	r := m - 1
	for i := 0; i < r; i++ {
		left[i], best[i] = i+1, w[0][i+1]
	}
	var total float64
	for r > 0 {
		p := 0
		for i := 1; i < r; i++ {
			if best[i] < best[p] {
				p = i
			}
		}
		total += best[p]
		u := left[p]
		r--
		left[p], best[p] = left[r], best[r]
		for i := 0; i < r; i++ {
			if d := w[u][left[i]]; d < best[i] {
				best[i] = d
			}
		}
	}
	return total
}

// buildTree computes an MST of the points (Prim, O(n²)), its weight, and
// the heaviest edge on the tree path between every pair of points. Unlike
// mst.Prim it accepts coincident points.
func (s *search) buildTree() {
	points := s.points
	n := len(points)
	inTree := make([]bool, n)
	best := make([]float64, n)
	via := make([]int, n)
	adj := make([][]int, n)
	inTree[0] = true
	for v := 1; v < n; v++ {
		best[v] = geom.Dist(points[0], points[v])
	}
	s.treeCost = 0
	for added := 1; added < n; added++ {
		pick := -1
		for v := 1; v < n; v++ {
			if !inTree[v] && (pick < 0 || best[v] < best[pick]) {
				pick = v
			}
		}
		s.treeCost += best[pick]
		adj[pick] = append(adj[pick], via[pick])
		adj[via[pick]] = append(adj[via[pick]], pick)
		inTree[pick] = true
		for v := 1; v < n; v++ {
			if !inTree[v] {
				if d := geom.Dist(points[pick], points[v]); d < best[v] {
					best[v], via[v] = d, pick
				}
			}
		}
	}

	if cap(s.maxEdge) < n*n {
		s.maxEdge = make([]float64, n*n)
	}
	s.maxEdge = s.maxEdge[:n*n]
	from := via // reused: from[v] is v's predecessor on the walk from r
	stack := make([]int, 0, n)
	for r := 0; r < n; r++ {
		row := s.maxEdge[r*n : (r+1)*n]
		row[r], from[r] = 0, -1
		stack = append(stack[:0], r)
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, v := range adj[u] {
				if v != from[u] {
					from[v] = u
					row[v] = math.Max(row[u], geom.Dist(points[u], points[v]))
					stack = append(stack, v)
				}
			}
		}
	}
}
