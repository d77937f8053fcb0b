package elmore

import (
	"errors"
	"fmt"
	"math"

	"nontree/internal/geom"
	"nontree/internal/graph"
	"nontree/internal/obs"
	"nontree/internal/rc"
)

// Incremental candidate evaluation for the greedy sweeps.
//
// Adding edge (u,v) with conductance g to a routing graph is a rank-1
// update of the grounded conductance matrix:
//
//	G' = G + g·w·wᵀ,  w = e_u − e_v,
//
// and it also adds the new wire's capacitance, half at each endpoint:
//
//	c' = c + Δ,  Δ = (c_e/2)(e_u + e_v).
//
// By the Sherman–Morrison identity, with y = G⁻¹w and t = G⁻¹c (the
// current Elmore delays),
//
//	t' = G'⁻¹c' = t + G⁻¹Δ − y · g(wᵀt + wᵀG⁻¹Δ)/(1 + g·wᵀy).
//
// Every term needs only triangular solves against the *already factored* G
// — solves that are cached per endpoint — instead of assembling and
// factoring G' from scratch, O(n³). The same rank-1 primitive scores a
// wire widening (width w→w+1 is exactly a parallel unit-width wire), and a
// rank-3 Woodbury extension scores a mid-edge source tap after analytically
// eliminating the new Steiner node (see WithTap). A full scan of all O(n²)
// candidate edges costs n cached-column solves plus O(n) arithmetic per
// candidate.
//
// The evaluator also derives an oracle-free *improvement bound* for
// pruning widenings (WideningBound): an upper bound on how much any node's
// delay can drop under a candidate, computed from the base delays alone,
// before any linear algebra.
//
// Incremental is deliberately stateful — its solve cache, probe buffer,
// count tallies and epoch counter mutate on evaluation — which is why it
// is the sanctioned exception to the oracle purity contract: one instance
// serves one goroutine, the epochcheck analyzer rejects probes against a
// stale factorization, and the purityflow analyzer exempts exactly this
// type (and nothing else) from its no-shared-writes rule (DESIGN.md §14).
type Incremental struct {
	topo  *graph.Topology
	p     rc.Params
	width rc.WidthFunc

	l    *rc.Lumped
	cond *Conductance
	base []float64 //nontree:unit s

	// colCache[k] = G⁻¹ e_k, a transfer-resistance column, lazily computed.
	// Valid only for the current epoch: Refactor and Adopt reset it.
	colCache [][]float64 //nontree:unit Ω

	// epoch counts the base states installed (Refactor or Adopt). It
	// exists to make cache-invalidation observable: every cached artifact
	// belongs to the epoch it was computed in, and each install starts a
	// new one.
	epoch int

	// buf is the delay vector every probe writes and returns; the next
	// probe overwrites it.
	buf []float64 //nontree:unit s

	// evals, hits and misses tally probes and column-cache lookups until
	// Flush hands them to Obs, so a probe takes no lock.
	evals, hits, misses int64

	// Obs counts candidate evaluations, column-cache hits/misses and
	// factorizations when set (nil = discard). Like the evaluator itself it
	// is used from a single goroutine. Evaluations, hits and misses reach it
	// only through Flush.
	Obs obs.Recorder
}

// NewIncremental prepares incremental evaluation over the topology's
// current state at unit wire widths. The topology must not be mutated while
// the evaluator is in use; after committing a modification, call Refactor
// to re-derive the base state. An Incremental mutates its caches on every
// evaluation and must not be shared across goroutines — give each worker
// its own evaluator instead.
func NewIncremental(t *graph.Topology, p rc.Params) (*Incremental, error) {
	return NewIncrementalWidth(t, p, nil)
}

// NewIncrementalWidth is NewIncremental under an explicit per-edge width
// assignment (nil = unit widths). The width function is re-read on every
// Refactor, so callers that mutate their width map need only refactor.
func NewIncrementalWidth(t *graph.Topology, p rc.Params, width rc.WidthFunc) (*Incremental, error) {
	inc := &Incremental{topo: t, p: p, width: width}
	if err := inc.Refactor(); err != nil {
		return nil, err
	}
	return inc, nil
}

// Refactor re-derives the evaluator's base state from the (possibly
// mutated) topology and width function — it solves them afresh and
// adopts the solution — invalidating every cached transfer-resistance
// column and starting a new epoch. Forgetting the invalidation would
// silently reuse columns of the *previous* factorization; the test suite
// pins this with a stale-cache regression test.
func (inc *Incremental) Refactor() error {
	sol, err := Solve(inc.topo, inc.p, inc.width)
	if err != nil {
		return err
	}
	if err := inc.Adopt(sol); err != nil {
		return err
	}
	obs.OrNop(inc.Obs).Add(obs.CtrIncrementalFactorizations, 1)
	return nil
}

// Solution is a topology's solved Elmore state under a width assignment:
// its lumped network, factored conductance matrix and delay vector.
type Solution struct {
	l      *rc.Lumped
	cond   *Conductance
	delays []float64 //nontree:unit s
}

// Solve lumps t under p and width, factors its conductance matrix and
// solves for the delays: the arithmetic of rc.Lump and GraphDelays, so
// Delays equals GraphDelays of that network bit for bit.
func Solve(t *graph.Topology, p rc.Params, width rc.WidthFunc) (*Solution, error) {
	l, err := rc.Lump(t, p, width)
	if err != nil {
		return nil, err
	}
	cond, err := FactorConductance(t, l)
	if err != nil {
		return nil, err
	}
	delays, err := cond.Delays(l)
	if err != nil {
		return nil, err
	}
	return &Solution{l: l, cond: cond, delays: delays}, nil
}

// Delays returns the solved delay vector. It must not be modified.
//
//nontree:unit return s
func (s *Solution) Delays() []float64 { return s.delays }

// Adopt installs sol as the base state, in place of a Refactor: sol must
// be the Solve of the evaluator's topology in its current state under its
// width function, the committed modification's own full solve. Adopting
// starts a new epoch exactly as Refactor does, dropping every cached
// column. It flushes the pending counts first, and rejects a solution
// whose network does not match the topology's node and edge counts.
func (inc *Incremental) Adopt(sol *Solution) error {
	n := inc.topo.NumNodes()
	if len(sol.l.NodeCap) != n || len(sol.l.EdgeRes) != inc.topo.NumEdges() {
		return fmt.Errorf("%w: adopting a %d-node, %d-edge solution on a %d-node, %d-edge topology",
			ErrSizeMismatch, len(sol.l.NodeCap), len(sol.l.EdgeRes), n, inc.topo.NumEdges())
	}
	inc.Flush()
	inc.l, inc.cond, inc.base = sol.l, sol.cond, sol.delays
	inc.colCache = make([][]float64, n)
	inc.epoch++
	return nil
}

// Flush adds the evaluations, cache hits and cache misses tallied since the
// last flush to Obs and resets the tallies. Probes only count; callers
// flush once per sweep, and Refactor flushes itself, so the totals Obs
// sees are the per-probe counts, delivered in batches.
func (inc *Incremental) Flush() {
	rec := obs.OrNop(inc.Obs)
	if inc.evals != 0 {
		rec.Add(obs.CtrIncrementalEvals, inc.evals)
	}
	if inc.hits != 0 {
		rec.Add(obs.CtrIncrementalHits, inc.hits)
	}
	if inc.misses != 0 {
		rec.Add(obs.CtrIncrementalMisses, inc.misses)
	}
	inc.evals, inc.hits, inc.misses = 0, 0, 0
}

// Epoch returns the number of base states installed so far by Refactor
// or Adopt (1 after construction). Cached columns never outlive an epoch.
func (inc *Incremental) Epoch() int { return inc.epoch }

// BaseDelays returns the delays of the unmodified topology.
//
//nontree:unit return s
func (inc *Incremental) BaseDelays() []float64 { return inc.base }

// Column returns G⁻¹e_k, the transfer-resistance column of node k under
// the current base state, from the epoch's cache. It must not be
// modified.
//
//nontree:unit return Ω
func (inc *Incremental) Column(k int) []float64 {
	if inc.colCache[k] == nil {
		col := make([]float64, inc.cond.size)
		col[k] = 1
		inc.cond.lu.SolveInPlace(col)
		inc.colCache[k] = col
		inc.misses++
	} else {
		inc.hits++
	}
	return inc.colCache[k]
}

// probeBuf returns the evaluator's probe buffer sized to the current
// network.
//
//nontree:unit return s
func (inc *Incremental) probeBuf() []float64 {
	n := inc.cond.size
	if cap(inc.buf) < n {
		inc.buf = make([]float64, n)
	}
	inc.buf = inc.buf[:n]
	return inc.buf
}

// ErrDegenerate is returned for candidate modifications of zero length.
var ErrDegenerate = errors.New("elmore: candidate edge has zero length")

// edgeWidth resolves the width a candidate or existing edge would carry.
func (inc *Incremental) edgeWidth(e graph.Edge) float64 {
	if inc.width == nil {
		return 1
	}
	return inc.width(e)
}

// withConductance is the shared rank-1 core: the delay vector after adding
// conductance g between nodes u and v together with shunt capacitance
// halfC at each of them. It performs no eligibility checks — wrappers
// validate. O(n) after the two endpoint columns are cached. The result is
// the probe buffer.
//
//nontree:unit g Ω^-1
//nontree:unit halfC F
//nontree:unit return s
func (inc *Incremental) withConductance(u, v int, g, halfC float64) ([]float64, error) {
	inc.evals++

	colU := inc.Column(u)
	colV := inc.Column(v)

	// y = G⁻¹w = colU − colV and z = G⁻¹Δ = halfC·(colU + colV), from the
	// cached columns; wᵀt, wᵀy, wᵀz are scalars.
	wT_t := inc.base[u] - inc.base[v]
	wT_y := (colU[u] - colV[u]) - (colU[v] - colV[v])
	wT_z := halfC * ((colU[u] + colV[u]) - (colU[v] + colV[v]))

	denom := 1 + g*wT_y
	if denom <= 0 {
		return nil, fmt.Errorf("elmore: rank-1 update degenerate for (%d,%d) (denominator %g)", u, v, denom)
	}
	scale := g * (wT_t + wT_z) / denom

	out := inc.probeBuf()
	for i := range out {
		y_i := colU[i] - colV[i]
		z_i := halfC * (colU[i] + colV[i])
		out[i] = inc.base[i] + z_i - scale*y_i
	}
	return out, nil
}

// WithEdge returns the Elmore delay vector of the topology with candidate
// edge e added (at the width the evaluator's width function assigns it),
// without mutating anything. O(n) after the per-endpoint columns are
// cached, and allocation-free: the returned slice is the evaluator's probe
// buffer, valid until its next WithEdge, WithWiden or WithTap call.
//
//nontree:unit return s
func (inc *Incremental) WithEdge(e graph.Edge) ([]float64, error) {
	e = e.Canon()
	length := inc.topo.EdgeLength(e)
	//nontree:allow floatcmp Manhattan length of coincident points is exactly 0.0; degeneracy sentinel guarding the 1/length conductance below
	if length == 0 {
		return nil, ErrDegenerate
	}
	if inc.topo.HasEdge(e) {
		return nil, fmt.Errorf("elmore: edge %v already present", e)
	}
	w := inc.edgeWidth(e)
	if w <= 0 {
		return nil, fmt.Errorf("elmore: edge %v width %g", e, w)
	}
	g := 1 / (inc.p.WireResistance * length / w)
	halfC := inc.p.WireCapacitance * length * w / 2
	return inc.withConductance(e.U, e.V, g, halfC)
}

// WithWiden returns the delay vector with existing edge e widened by one
// width step. Under the first-order width model (resistance ∝ 1/w,
// capacitance ∝ w), one extra width unit is exactly one additional
// unit-width wire in parallel — the same rank-1 update as WithEdge, with
// width-independent increments Δg = 1/(r·len) and Δc/2 = c·len/2. Like
// WithEdge, it returns the evaluator's probe buffer.
//
//nontree:unit return s
func (inc *Incremental) WithWiden(e graph.Edge) ([]float64, error) {
	e = e.Canon()
	if !inc.topo.HasEdge(e) {
		return nil, fmt.Errorf("elmore: widening absent edge %v", e)
	}
	length := inc.topo.EdgeLength(e)
	//nontree:allow floatcmp zero-length edges cannot exist in a Topology; defensive sentinel for the divisions below
	if length == 0 {
		return nil, ErrDegenerate
	}
	dg := 1 / (inc.p.WireResistance * length)
	dHalfC := inc.p.WireCapacitance * length / 2
	return inc.withConductance(e.U, e.V, dg, dHalfC)
}

// WithTap returns the delay vector (indexed by the *current* topology's
// nodes) after splitting existing edge e at point pt and wiring the source
// to the split: edge e is removed and replaced by unit-width wires (e.U,s),
// (s,e.V) and (0,s) where s is a new Steiner node at pt.
//
// The new node never enters the linear algebra: s is eliminated
// analytically (a single-node Schur complement — the classic Y-Δ
// transform), which turns the tap into a rank-3 symmetric update of the
// existing conductance matrix plus a sparse capacitance redistribution
// over {e.U, e.V, 0}. The update is then applied by the Woodbury identity
// using the three cached columns of those nodes; the source column is
// shared by every tap candidate of a sweep. Delays at s itself are not
// produced — objectives only read sink nodes, which all pre-exist. Like
// WithEdge, it returns the evaluator's probe buffer.
func (inc *Incremental) WithTap(e graph.Edge, pt geom.Point) ([]float64, error) {
	e = e.Canon()
	if !inc.topo.HasEdge(e) {
		return nil, fmt.Errorf("elmore: tapping absent edge %v", e)
	}
	if e.U == 0 || e.V == 0 {
		// A tap candidate on a source-incident edge degenerates to a point
		// on that edge's bounding box containing the source; the sweeps
		// never produce one.
		return nil, fmt.Errorf("elmore: tap on source-incident edge %v", e)
	}
	a, b, src := inc.topo.Point(e.U), inc.topo.Point(e.V), inc.topo.Point(0)
	lenA := geom.Dist(a, pt)   //nontree:unit µm
	lenB := geom.Dist(pt, b)   //nontree:unit µm
	lenC := geom.Dist(src, pt) //nontree:unit µm
	//nontree:allow floatcmp Manhattan distance of coincident points is exactly 0.0; degenerate taps reduce to plain edges and are handled there
	if lenA == 0 || lenB == 0 || lenC == 0 {
		return nil, ErrDegenerate
	}

	// Star conductances of the three new unit-width wires around s, and the
	// conductance of the removed edge exactly as it was stamped.
	gA := 1 / (inc.p.WireResistance * lenA) //nontree:unit Ω^-1
	gB := 1 / (inc.p.WireResistance * lenB) //nontree:unit Ω^-1
	gC := 1 / (inc.p.WireResistance * lenC) //nontree:unit Ω^-1
	gSum := gA + gB + gC                    //nontree:unit Ω^-1
	rOld, ok := inc.l.EdgeRes[e]
	if !ok {
		return nil, fmt.Errorf("elmore: lumped network missing edge %v", e)
	}
	gOld := 1 / rOld //nontree:unit Ω^-1

	// Eliminating s (Schur complement) turns the star into a triangle among
	// {u, v, 0} with conductances g_x·g_y/Σg, and distributes s's shunt
	// capacitance c_s to its neighbours in proportion g_x/Σg.
	dguv := gA*gB/gSum - gOld //nontree:unit Ω^-1
	dgu0 := gA * gC / gSum    //nontree:unit Ω^-1
	dgv0 := gB * gC / gSum    //nontree:unit Ω^-1

	wOld := inc.edgeWidth(e)
	oldHalfC := inc.p.WireCapacitance * inc.topo.EdgeLength(e) * wOld / 2 //nontree:unit F
	capS := inc.p.WireCapacitance * (lenA + lenB + lenC) / 2              //nontree:unit F
	dcU := inc.p.WireCapacitance*lenA/2 - oldHalfC + gA/gSum*capS         //nontree:unit F
	dcV := inc.p.WireCapacitance*lenB/2 - oldHalfC + gB/gSum*capS         //nontree:unit F
	dc0 := inc.p.WireCapacitance*lenC/2 + gC/gSum*capS                    //nontree:unit F

	inc.evals++

	colU := inc.Column(e.U)
	colV := inc.Column(e.V)
	col0 := inc.Column(0)

	// G' = G + W·D·Wᵀ with W = [e_u−e_v, e_u−e_0, e_v−e_0] and
	// D = diag(dguv, dgu0, dgv0); c' = c + Δc. By Woodbury,
	//
	//	t' = t̃ − Y·s,  Y = G⁻¹W,  (I + D·WᵀY)·s = D·Wᵀt̃,
	//
	// where t̃ = G⁻¹c' = base + Δc_u·colU + Δc_v·colV + Δc_0·col0. The
	// (I + D·M) form avoids inverting D, so zero or negative increments
	// (the removed edge makes dguv negative) need no special casing.
	d := [3]float64{dguv, dgu0, dgv0}
	// Y columns evaluated at the three anchor nodes give M = WᵀY.
	y1 := func(i int) float64 { return colU[i] - colV[i] }
	y2 := func(i int) float64 { return colU[i] - col0[i] }
	y3 := func(i int) float64 { return colV[i] - col0[i] }
	tTilde := func(i int) float64 {
		return inc.base[i] + dcU*colU[i] + dcV*colV[i] + dc0*col0[i]
	}
	var m [3][3]float64
	var rhs [3]float64
	// Row j of Wᵀ dots a vector at (u,v), (u,0), (v,0) respectively.
	dotW := func(f func(int) float64) [3]float64 {
		fu, fv, f0 := f(e.U), f(e.V), f(0)
		return [3]float64{fu - fv, fu - f0, fv - f0}
	}
	c1, c2, c3 := dotW(y1), dotW(y2), dotW(y3)
	ct := dotW(tTilde)
	for j := 0; j < 3; j++ {
		m[j][0], m[j][1], m[j][2] = c1[j], c2[j], c3[j]
		rhs[j] = d[j] * ct[j]
	}
	// A = I + D·M (row j scaled by d[j]).
	var A [3][3]float64
	for j := 0; j < 3; j++ {
		for k := 0; k < 3; k++ {
			A[j][k] = d[j] * m[j][k]
		}
		A[j][j] += 1
	}
	s, err := solve3(A, rhs)
	if err != nil {
		return nil, fmt.Errorf("elmore: rank-3 tap update degenerate for %v: %w", e, err)
	}

	out := inc.probeBuf()
	for i := range out {
		out[i] = tTilde(i) - s[0]*y1(i) - s[1]*y2(i) - s[2]*y3(i)
	}
	return out, nil
}

// solve3 solves a 3×3 linear system by Gaussian elimination with partial
// pivoting. Kept local: the incremental evaluator is the only consumer of
// fixed-size solves and the dense linalg package would allocate.
func solve3(a [3][3]float64, b [3]float64) ([3]float64, error) {
	for col := 0; col < 3; col++ {
		p := col
		for r := col + 1; r < 3; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[p][col]) {
				p = r
			}
		}
		//nontree:allow floatcmp exact-zero pivot is the singularity sentinel
		if a[p][col] == 0 {
			return [3]float64{}, errors.New("singular 3x3 system")
		}
		a[col], a[p] = a[p], a[col]
		b[col], b[p] = b[p], b[col]
		for r := col + 1; r < 3; r++ {
			f := a[r][col] / a[col][col]
			for k := col; k < 3; k++ {
				a[r][k] -= f * a[col][k]
			}
			b[r] -= f * b[col]
		}
	}
	var x [3]float64
	for r := 2; r >= 0; r-- {
		s := b[r]
		for k := r + 1; k < 3; k++ {
			s -= a[r][k] * x[k]
		}
		x[r] = s / a[r][r]
	}
	return x, nil
}

// WideningBound returns an upper bound (s) on how much any node's delay
// can improve when existing edge e is widened by one step. Widening is the
// WithWiden rank-1 update: the conductance increment can improve a node by
// at most |t_u − t_v| (with y = G⁻¹w, |y_i| ≤ wᵀy by the maximum principle,
// and the Sherman–Morrison gain g·wᵀy/(1+g·wᵀy) is < 1), and the
// capacitance increment only ever hurts (G is an M-matrix, so G⁻¹ ≥ 0).
// The bound never evaluates the candidate; a sweep uses it to skip
// widenings that provably cannot beat its threshold.
//
//nontree:unit return s
func (inc *Incremental) WideningBound(e graph.Edge) float64 {
	e = e.Canon()
	return math.Abs(inc.base[e.U] - inc.base[e.V])
}
