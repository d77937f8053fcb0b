package steiner

import (
	"math"

	"nontree/internal/geom"
	"nontree/internal/scratch"
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
// so it is updated in O(1) per round. Tree takes a search from searches and
// returns it when the run ends, so a warm caller reuses every buffer below;
// a net of more than maxKeptPins pins leaves its search to the collector.
type search struct {
	points     []geom.Point
	candidates []geom.Point
	hanan      geom.Hanan // the storage candidates' grid is built in
	stars      []star
	est        []float64 // est[i]: the round's estimate for candidates[i]
	contenders []int     // the round's candidates within the recheck margin, in order
	exact      []float64 // exact[j]: the MST cost with candidates[contenders[j]] added
	rechecks   []recheck // rechecks[w]: worker w's scratch; worker 0 is the caller

	treeCost float64   // weight of the MST of points
	prefix   prefix    // that MST's Prim, step by step
	maxEdge  []float64 // maxEdge[u*n+v]: heaviest edge on that MST's u–v path
	prevEdge []float64 // the previous round's maxEdge, over prevN points
	prevN    int
	changed  []bool // changed[u*prevN+v]: maxEdge[u*n+v] differs from prevEdge's

	crew crew // the helpers that share the phases, with rechecks[1:]
}

var searches = scratch.New[search]()

// maxKeptPins is the largest net whose search goes back to searches. A
// search's buffers grow to the largest net it has run and are never
// trimmed; a 64-pin net's hold about 1 MB, while a 1024-pin net's stars
// alone take some 120 MB, which a slot should not keep for the life of the
// process.
const maxKeptPins = 64

// star is a candidate's nearest point in each of its eight octants. In the
// Manhattan metric two points in the same closed 45° wedge around c are
// never farther from each other than the farther one is from c, so some MST
// of points ∪ {c} joins c only to these ends.
type star struct {
	end  [8]int32 // index into points, -1 when the octant is empty
	dist [8]float64

	// without and with are w(MST(K)) and w(MST(H)) of weights, valid unless
	// stale. They depend only on the ends, their distances and maxEdge
	// between the ends, so a round recomputes them only when one of those
	// changed since the last.
	without, with float64
	stale         bool
}

// reset prepares s for a search over points with their Hanan grid as
// candidates, keeping its storage. The stars are built by phaseStars.
func (s *search) reset(points []geom.Point) {
	s.points = append(s.points[:0], points...)
	s.candidates = s.hanan.AppendGrid(s.candidates[:0], points)
	s.stars = resize(s.stars, len(s.candidates), len(s.candidates))
	s.prefix.n = 0 // no previous round whose maxEdge could carry over
}

// initStars sets the stars of candidates lo..hi-1 from every point.
func (s *search) initStars(lo, hi int) {
	for i := lo; i < hi; i++ {
		c, st := s.candidates[i], &s.stars[i]
		st.stale = true
		for o := range st.end {
			st.end[o] = -1
		}
		for j, p := range s.points {
			st.add(c, j, p)
		}
	}
}

// add offers point j, at p, to the star of candidate c, and reports whether
// the star changed.
func (st *star) add(c geom.Point, j int, p geom.Point) bool {
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
		st.end[o], st.dist[o] = int32(j), d
		return true
	}
	return false
}

// accept adds candidate i to the points and drops it from the candidates.
func (s *search) accept(i int) {
	s.points = append(s.points, s.candidates[i])
	s.candidates = append(s.candidates[:i], s.candidates[i+1:]...)
	s.stars = append(s.stars[:i], s.stars[i+1:]...)
	s.split(phaseAccept, len(s.candidates))
}

// offer offers the newest point to the stars of candidates lo..hi-1.
func (s *search) offer(lo, hi int) {
	j := len(s.points) - 1
	c := s.points[j]
	for k := lo; k < hi; k++ {
		if s.stars[k].add(s.candidates[k], j, c) {
			s.stars[k].stale = true
		}
	}
}

// best returns the index of the candidate whose addition most reduces the
// MST cost of the points, and that reduction, or -1 when none reduces it.
// The result is exactly that of scoring every candidate c, in order, by
// baseCost − mst.Cost(points ∪ {c}) and keeping the first strict maximum
// above zero: every candidate that rule could pick has an estimate within
// the margin, and those are the ones scored that way here.
func (s *search) best(baseCost float64) (int, float64) {
	s.estimate()
	minEst := baseCost // a candidate costing more than baseCost has no gain
	for _, e := range s.est {
		minEst = math.Min(minEst, e)
	}
	limit := minEst + recheckMargin*baseCost

	s.contenders = s.contenders[:0]
	for i, e := range s.est {
		if e <= limit {
			s.contenders = append(s.contenders, i)
		}
	}
	s.exact = resize(s.exact, len(s.contenders), len(s.contenders))
	s.split(phaseRecheck, len(s.contenders))

	bestGain := 0.0
	bestIdx := -1
	for j, i := range s.contenders {
		if gain := baseCost - s.exact[j]; gain > bestGain {
			bestGain = gain
			bestIdx = i
		}
	}
	return bestIdx, bestGain
}

// estimate builds the MST of the points and sets est to every candidate's
// MST cost with that candidate added. Adding the ≤ 8 star edges to the MST T
// changes only edges on T-paths between the star's ends. With K the complete
// graph on the ends weighted by maxEdge, and H that graph plus the candidate
// and its star edges, the cost is w(T) − w(MST(K)) + w(MST(H)). The two
// weights are carried over from the last round unless the star gained an
// end or maxEdge moved between two of its ends.
func (s *search) estimate() {
	s.buildTree()
	s.est = resize(s.est, len(s.stars), len(s.stars))
	s.split(phaseEstimate, len(s.stars))
}

// estimateRange sets est[lo:hi].
func (s *search) estimateRange(lo, hi int) {
	for i := lo; i < hi; i++ {
		st := &s.stars[i]
		if st.stale || s.moved(st) {
			st.without, st.with = s.weights(st)
			st.stale = false
		}
		s.est[i] = s.treeCost - st.without + st.with
	}
}

// moved reports whether maxEdge between two of the star's ends differs from
// the previous round's. It is asked only of stars unchanged since then, whose
// ends all lie below prevN.
func (s *search) moved(st *star) bool {
	m := s.prevN
	for a, i := range st.end {
		if i < 0 {
			continue
		}
		row := s.changed[int(i)*m:]
		for _, j := range st.end[a+1:] {
			if j >= 0 && row[j] {
				return true
			}
		}
	}
	return false
}

// weights returns w(MST(K)) and w(MST(H)) for the star: two Prims over at
// most nine nodes.
func (s *search) weights(st *star) (without, with float64) {
	// The star's ends are nodes 0..k-1 of K and H; the candidate is node k.
	var ends [8]int
	var dist [8]float64
	k := 0
	for o, j := range st.end {
		if j >= 0 {
			ends[k], dist[k] = int(j), st.dist[o]
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
	without = prim(k, &w)
	for a := 0; a < k; a++ {
		w[k][a], w[a][k] = dist[a], dist[a]
	}
	return without, prim(k+1, &w)
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

// buildTree runs mst.Cost's Prim over the points (O(n²)), recording it in
// prefix, and from the same steps fills maxEdge, the heaviest edge on the
// tree path between every pair of points. The previous round's maxEdge is
// kept in prevEdge. Unlike mst.Prim it accepts coincident points.
func (s *search) buildTree() {
	points := s.points
	n := len(points)
	// A search accepts up to about 0.65 Steiner points per pin (at most 57
	// on 100 seeded 100-pin nets), so buffers sized for this many points are
	// seldom regrown.
	room := n + 2*n/3 + 2
	p := &s.prefix
	s.prevEdge, s.maxEdge, s.prevN = s.maxEdge, s.prevEdge, p.n
	s.maxEdge = resize(s.maxEdge, n*n, room*room)
	p.resize(n, room)
	for w := range s.rechecks {
		s.rechecks[w].resize(n, room)
	}

	dist := p.dist
	for u := range points {
		dist[u*n+u] = 0
		for v := 0; v < u; v++ {
			d := geom.Dist(points[u], points[v])
			dist[u*n+v], dist[v*n+u] = d, d
		}
	}

	step, via := p.step, p.via
	step[0] = -1
	for v := 1; v < n; v++ {
		step[v], via[v] = n, 0
	}
	copy(p.near, dist[:n])
	p.order[0], s.maxEdge[0] = 0, 0
	var total float64
	for t := 0; t < n-1; t++ {
		row := p.near[t*n : (t+1)*n]
		pick := -1
		for v := 1; v < n; v++ {
			if step[v] > t && (pick < 0 || row[v] < row[pick]) {
				pick = v
			}
		}
		e := row[pick]
		p.order[t+1], p.w[t], p.total[t] = pick, e, total
		total += e
		step[pick] = t

		// The tree path from pick to an earlier node runs through via[pick].
		mine, par := s.maxEdge[pick*n:(pick+1)*n], s.maxEdge[via[pick]*n:]
		mine[pick] = 0
		for _, u := range p.order[:t+1] {
			m := math.Max(e, par[u])
			mine[u], s.maxEdge[u*n+pick] = m, m
		}

		if t+1 < n-1 {
			next := p.near[(t+1)*n : (t+2)*n]
			copy(next, row)
			from := dist[pick*n : (pick+1)*n]
			for v := 1; v < n; v++ {
				if step[v] > t && from[v] < next[v] {
					next[v], via[v] = from[v], pick
				}
			}
		}
	}
	p.total[n-1] = total
	p.n = n
	s.treeCost = total

	m := s.prevN
	s.changed = resize(s.changed, m*m, room*room)
	for u := 0; u < m; u++ {
		row, prev := s.maxEdge[u*n:u*n+m], s.prevEdge[u*m:(u+1)*m]
		for v, e := range row {
			//nontree:allow floatcmp asks whether an input of the cached weights changed at all; any bit counts
			s.changed[u*m+v] = e != prev[v]
		}
	}
}

// prefix is mst.Cost's Prim over n points, step by step. Step t joins
// order[t+1] at weight w[t], with total[t] the sum of w[:t] in that order
// and near[t*n+v] the cheapest edge from v to the tree before the step;
// order[0] is node 0. step[v] is the step that joined v, -1 for node 0.
type prefix struct {
	n           int
	dist, near  []float64 // dist[u*n+v]: the distance of u and v
	w, total    []float64
	order, step []int
	via         []int // buildTree's scratch
}

// recheck is the scratch of one goroutine's exact rechecks.
type recheck struct {
	closer []int
	alt    []float64
	early  []bool
}

// resize sizes the buffers for n points, regrowing one only when it holds
// fewer than n, and then for room.
func (p *prefix) resize(n, room int) {
	p.dist = resize(p.dist, n*n, room*room)
	p.near = resize(p.near, n*n, room*room)
	p.w = resize(p.w, n, room)
	p.total = resize(p.total, n, room)
	p.order = resize(p.order, n, room)
	p.step = resize(p.step, n, room)
	p.via = resize(p.via, n, room)
}

// resize sizes the scratch for n points, as prefix.resize does.
func (r *recheck) resize(n, room int) {
	r.closer = resize(r.closer, n, room)
	r.alt = resize(r.alt, n, room)
	r.early = resize(r.early, n, room)
}

// resize returns s with length n, reusing its storage when it is large
// enough and otherwise allocating room.
func resize[T any](s []T, n, room int) []T {
	if cap(s) < n {
		return make([]T, n, room)
	}
	return s[:n]
}

// costWithIn returns mst.Cost(append(points, c)) bit for bit, where points are
// the n points the prefix was recorded over. In that Prim c is the last
// node and loses every tie, so until c joins it takes the recorded steps
// and sums the same weights in the same order. c joins at the first step
// whose weight exceeds c's distance to the tree.
//
// From there the tree is the recorded one after k steps plus the nodes
// that joined ahead of their recorded step, c first. A node's cheapest edge
// to it is the recorded near[k*n+v] unless one of those early nodes is
// closer; closer lists such nodes, with that distance in alt. Each step
// therefore picks, by mst.Cost's rule (least edge, then least index),
// between the recorded next node and the closer list only. When it picks
// the recorded node the record advances a step; when it picks a closer
// node, that node joins early and offers its edges. The early nodes and
// the closer list are usually a few nodes near c, so a step costs far less
// than mst.Cost's scan of every node. It only reads the prefix; the
// closer list and the early flags live in r, which one goroutine owns.
func (p *prefix) costWithIn(r *recheck, points []geom.Point, c geom.Point) float64 {
	n := p.n
	nc := geom.Dist(points[0], c) // c's cheapest edge to the tree
	k := 0
	for ; k < n-1 && nc >= p.w[k]; k++ {
		if d := geom.Dist(points[p.order[k+1]], c); d < nc {
			nc = d
		}
	}
	total := p.total[k] + nc

	row := p.near[k*n : (k+1)*n]
	closer := r.closer[:0]
	for v := 1; v < n; v++ {
		r.early[v], r.alt[v] = false, math.Inf(1)
		if p.step[v] >= k {
			if d := geom.Dist(c, points[v]); d < row[v] {
				r.alt[v] = d
				closer = append(closer, v)
			}
		}
	}
	for left := n - 1 - k; left > 0; left-- {
		for r.early[p.order[k+1]] {
			k++
			closer = r.prune(p, closer, k)
		}
		next := p.order[k+1]
		pick, e, at := next, math.Min(p.w[k], r.alt[next]), -1
		for i, v := range closer {
			//nontree:allow floatcmp an exact tie goes to the lower index, as in mst.Cost's scan
			if a := r.alt[v]; a < e || (a == e && v < pick) {
				pick, e, at = v, a, i
			}
		}
		total += e
		if pick == next {
			k++
			closer = r.prune(p, closer, k)
			continue
		}
		r.early[pick] = true
		closer[at] = closer[len(closer)-1]
		closer = closer[:len(closer)-1]
		row, from := p.near[k*n:(k+1)*n], p.dist[pick*n:(pick+1)*n]
		for v := 1; v < n; v++ {
			if d := from[v]; p.step[v] >= k && !r.early[v] && d < row[v] && d < r.alt[v] {
				if r.alt[v] >= row[v] {
					closer = append(closer, v)
				}
				r.alt[v] = d
			}
		}
	}
	return total
}

// prune keeps the nodes of closer that are still outside p's tree after k
// recorded steps and still closer to it than that tree's own edge.
func (r *recheck) prune(p *prefix, closer []int, k int) []int {
	row := p.near[k*p.n:]
	kept := closer[:0]
	for _, v := range closer {
		if p.step[v] >= k && r.alt[v] < row[v] {
			kept = append(kept, v)
		}
	}
	return kept
}
