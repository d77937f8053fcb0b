package elmore

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

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
// before any linear algebra. For the max-delay objective, the cutoff
// probes MaxWithEdge and MaxWithTap visit the sinks worst-first and stop
// once their partial max passes a cutoff, so a candidate that cannot win
// costs a few sinks instead of n.
//
// Incremental is deliberately stateful — its solve cache, probe buffer,
// count tallies and epoch counter mutate on evaluation — so, unlike the
// oracles, one instance serves one goroutine. It also checks its own
// protocol: Adopt and Refactor record the topology's state stamp
// (graph.Topology.Stamp), and every probe returns ErrStale once the
// topology or, through Widened, the widths have moved on since, so no
// probe answers from a stale factorization (DESIGN.md §14).
type Incremental struct {
	topo  *graph.Topology
	p     rc.Params
	width rc.WidthFunc

	// sol is the adopted base state, and base its delays (s).
	sol  *Solution
	base []float64

	// ws holds the column cache, the sink order and the probe buffer.
	ws *Workspace

	// epoch counts the base states installed (Refactor or Adopt). It
	// exists to make cache-invalidation observable: every cached artifact
	// belongs to the epoch it was computed in, and each install starts a
	// new one.
	epoch int

	// stamp is the state the base state was installed for: the
	// topology's Stamp plus widened. widened counts the widenings the
	// caller has reported through Widened.
	stamp, widened uint64

	// evals, hits and misses tally probes and column-cache lookups until
	// Flush hands them to Obs, so a probe takes no lock.
	evals, hits, misses int64

	// Obs counts candidate evaluations, column-cache hits/misses and
	// factorizations when set (nil = discard). Like the evaluator itself it
	// is used from a single goroutine. Evaluations, hits and misses reach it
	// only through Flush.
	Obs obs.Recorder
}

// Workspace is the storage an incremental evaluator fills and reuses: the
// transfer-resistance columns, the sink order and the probe buffer. A
// caller that runs evaluators one after another, as a daemon does request
// after request, hands each the same Workspace, so storage is allocated
// only when a network outgrows every one before it. A Workspace serves one
// evaluator at a time; once it is handed to the next, the previous one
// must no longer be used. The zero value is ready for use.
//
// Column k is cols[k].r, valid when cols[k].gen equals gen. gen counts the
// base states installed over the workspace's lifetime, whichever evaluator
// installed them; it only grows, so no column left by an earlier epoch, or
// by an earlier evaluator whose own epoch count restarted at 1, can pass
// for a column of the current one.
type Workspace struct {
	gen  uint64
	cols []column

	// order holds the sinks in sinkOrder, sorted in generation orderGen.
	order    []int
	orderGen uint64

	// buf is the delay vector (s) every probe writes and returns; the next
	// probe overwrites it.
	buf []float64
}

// column is one cached transfer-resistance column and the workspace
// generation it was solved in.
type column struct {
	gen uint64
	r   []float64 // Ω
}

// install starts a new generation over an n-node network: every cached
// column goes stale, and the cache grows to n columns if it is shorter.
// Column storage is kept and refilled in place, and reallocated only for
// a column shorter than n.
func (ws *Workspace) install(n int) {
	ws.gen++
	if len(ws.cols) < n {
		ws.cols = append(ws.cols, make([]column, n-len(ws.cols))...)
	}
}

// NewIncremental prepares incremental evaluation over the topology's
// current state under a per-edge width assignment (nil = unit widths),
// solving the base state into sol and keeping its caches in ws
// (new(Solution) and new(Workspace) for storage of its own). After
// committing a modification, call Refactor to re-derive the base state,
// or Adopt the modified state's solution; until then every probe returns
// ErrStale. The width function is re-read on every Refactor, so callers
// that mutate their width map report it with Widened and need only
// refactor. An Incremental mutates its caches on every evaluation and
// must not be shared across goroutines — give each worker its own
// evaluator and workspace instead.
func NewIncremental(ws *Workspace, sol *Solution, t *graph.Topology, p rc.Params, width rc.WidthFunc) (*Incremental, error) {
	inc := &Incremental{topo: t, p: p, width: width, ws: ws, sol: sol}
	if err := inc.Refactor(); err != nil {
		return nil, err
	}
	return inc, nil
}

// Refactor re-derives the evaluator's base state from the (possibly
// mutated) topology and width function — it solves them afresh into the
// storage of the adopted solution and adopts it again — invalidating
// every cached transfer-resistance column and starting a new epoch.
// Forgetting the invalidation would silently reuse columns of the
// *previous* factorization; the test suite pins this with a stale-cache
// regression test. On error the evaluator must not be used.
func (inc *Incremental) Refactor() error {
	if err := Solve(inc.sol, inc.topo, inc.p, inc.width); err != nil {
		return err
	}
	if err := inc.Adopt(inc.sol); err != nil {
		return err
	}
	obs.OrNop(inc.Obs).Add(obs.CtrIncrementalFactorizations, 1)
	return nil
}

// Solution is a topology's solved Elmore state under a width assignment:
// its lumped network, factored conductance matrix and delay vector. Solve
// fills it, reusing its storage, so a warm solve into a warm Solution
// allocates nothing. The zero value is ready for Solve; a Solution must
// not be copied.
type Solution struct {
	l      rc.Lumped
	cond   Conductance
	delays []float64 // s
}

// Solve lumps t under p and width into sol, factors its conductance
// matrix and solves for the delays: the arithmetic of rc.Lump and
// GraphDelays, so Delays equals GraphDelays of that network bit for bit.
// On error sol holds no usable solution.
func Solve(sol *Solution, t *graph.Topology, p rc.Params, width rc.WidthFunc) error {
	if err := rc.Lump(&sol.l, t, p, width); err != nil {
		return err
	}
	if err := sol.cond.Factor(t, &sol.l); err != nil {
		return err
	}
	delays, err := sol.cond.Delays(sol.delays, &sol.l)
	if err != nil {
		return err
	}
	sol.delays = delays
	return nil
}

// Delays returns the solved delay vector (s). It must not be modified,
// and is valid until the next Solve into s.
func (s *Solution) Delays() []float64 { return s.delays }

// Adopt installs sol as the base state, in place of a Refactor: sol must
// be the Solve of the evaluator's topology in its current state under its
// width function, the committed modification's own full solve. The
// evaluator reads sol until the next Adopt, so sol must not be solved into
// meanwhile. Adopting starts a new epoch exactly as Refactor does,
// dropping every cached column. It flushes the pending counts first, and
// rejects a solution whose network does not match the topology's node and
// edge counts.
func (inc *Incremental) Adopt(sol *Solution) error {
	n := inc.topo.NumNodes()
	if len(sol.l.NodeCap) != n || len(sol.l.EdgeRes) != inc.topo.NumEdges() {
		return fmt.Errorf("%w: adopting a %d-node, %d-edge solution on a %d-node, %d-edge topology",
			ErrSizeMismatch, len(sol.l.NodeCap), len(sol.l.EdgeRes), n, inc.topo.NumEdges())
	}
	inc.Flush()
	inc.sol, inc.base = sol, sol.delays
	inc.ws.install(n)
	inc.epoch++
	inc.stamp = inc.topo.Stamp() + inc.widened
	return nil
}

// ErrStale is returned by a probe when the evaluator's topology, or its
// widths, changed after the base state was installed: the probe would
// answer from the factorization of a routing that no longer exists.
// Adopt the committed state's solution, or Refactor, before probing
// again.
var ErrStale = errors.New("elmore: probe against a stale base state; adopt or refactor after a committed modification")

// fresh returns ErrStale unless the topology and widths are in the state
// the base state was installed for: one integer compare.
func (inc *Incremental) fresh() error {
	if inc.topo.Stamp()+inc.widened != inc.stamp {
		return ErrStale
	}
	return nil
}

// Widened reports that the width function now gives one of the
// topology's edges one more width step. The widths are the caller's, so
// the evaluator cannot see the write itself; like a topology edit, it
// leaves the base state stale until the next Adopt or Refactor.
func (inc *Incremental) Widened() { inc.widened++ }

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

// BaseDelays returns the delays (s) of the unmodified topology, or
// ErrStale once the topology has moved on from them.
func (inc *Incremental) BaseDelays() ([]float64, error) {
	if err := inc.fresh(); err != nil {
		return nil, err
	}
	return inc.base, nil
}

// Column returns G⁻¹e_k, the transfer-resistance column (Ω) of node k
// under the current base state, from the epoch's cache. It must not be
// modified, and is valid until the next Refactor or Adopt.
func (inc *Incremental) Column(k int) []float64 {
	ws, n := inc.ws, inc.sol.cond.size
	c := &ws.cols[k]
	if c.gen == ws.gen {
		inc.hits++
		return c.r
	}
	if cap(c.r) < n {
		c.r = make([]float64, n)
	}
	c.r = c.r[:n]
	clear(c.r)
	c.r[k] = 1
	inc.sol.cond.f.SolveInPlace(c.r)
	c.gen = ws.gen
	inc.misses++
	return c.r
}

// probeBuf returns the evaluator's probe buffer (delays, s) sized to the
// current network.
func (inc *Incremental) probeBuf() []float64 {
	ws, n := inc.ws, inc.sol.cond.size
	if cap(ws.buf) < n {
		ws.buf = make([]float64, n)
	}
	ws.buf = ws.buf[:n]
	return ws.buf
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

// rank1 is a prepared rank-1 probe: at(i) is node i's delay (s) after
// adding conductance g between nodes u and v with shunt capacitance halfC
// at each, from the two cached endpoint columns. The full-vector probes
// and the cutoff probes share it, so both evaluate the same expression.
type rank1 struct {
	base, colU, colV []float64
	halfC, scale     float64
}

func (r *rank1) at(i int) float64 {
	y_i := r.colU[i] - r.colV[i]
	z_i := r.halfC * (r.colU[i] + r.colV[i])
	return r.base[i] + z_i - r.scale*y_i
}

// withConductance is the shared rank-1 core: it counts one probe and
// prepares in r the update adding conductance g (Ω⁻¹) between nodes u and
// v together with shunt capacitance halfC (F) at each of them. It performs
// no eligibility checks — wrappers validate.
func (inc *Incremental) withConductance(r *rank1, u, v int, g, halfC float64) error {
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
		return fmt.Errorf("elmore: rank-1 update degenerate for (%d,%d) (denominator %g)", u, v, denom)
	}
	scale := g * (wT_t + wT_z) / denom
	r.base, r.colU, r.colV, r.halfC, r.scale = inc.base, colU, colV, halfC, scale
	return nil
}

// fill writes every node's delay into the probe buffer and returns it.
func (r *rank1) fill(inc *Incremental) []float64 {
	out := inc.probeBuf()
	for i := range out {
		out[i] = r.at(i)
	}
	return out
}

// cutoffMax is the cutoff probe over the sinks (see MaxWithEdge).
func (r *rank1) cutoffMax(order []int, cutoff float64) float64 {
	var worst float64
	for _, i := range order {
		if d := r.at(i); d > worst {
			if worst = d; worst > cutoff {
				break
			}
		}
	}
	return worst
}

// addition prepares in r the probe of candidate edge e at the width the
// evaluator's width function assigns it.
func (inc *Incremental) addition(r *rank1, e graph.Edge) error {
	if err := inc.fresh(); err != nil {
		return err
	}
	e = e.Canon()
	length := inc.topo.EdgeLength(e)
	//nontree:allow floatcmp Manhattan length of coincident points is exactly 0.0; degeneracy sentinel guarding the 1/length conductance below
	if length == 0 {
		return ErrDegenerate
	}
	if inc.topo.HasEdge(e) {
		return fmt.Errorf("elmore: edge %v already present", e)
	}
	w := inc.edgeWidth(e)
	if w <= 0 {
		return fmt.Errorf("elmore: edge %v width %g", e, w)
	}
	g := 1 / (inc.p.WireResistance * length / w)
	halfC := inc.p.WireCapacitance * length * w / 2
	return inc.withConductance(r, e.U, e.V, g, halfC)
}

// WithEdge returns the Elmore delay vector (s) of the topology with candidate
// edge e added (at the width the evaluator's width function assigns it),
// without mutating anything. O(n) after the per-endpoint columns are
// cached, and allocation-free: the returned slice is the evaluator's probe
// buffer, valid until its next WithEdge, WithWiden or WithTap call.
func (inc *Incremental) WithEdge(e graph.Edge) ([]float64, error) {
	var r rank1
	if err := inc.addition(&r, e); err != nil {
		return nil, err
	}
	return r.fill(inc), nil
}

// MaxWithEdge is the cutoff probe of candidate edge e: the max over the
// sinks of the delays WithEdge returns, or, as soon as a partial max
// exceeds cutoff, that partial max, a lower bound on the full one. It
// visits the sinks in sinkOrder, so a candidate that cannot win usually
// stops within a few sinks. A result at most cutoff is the full max,
// bit-identical to elmore.MaxSinkDelay of WithEdge's delays: every sink is
// evaluated by the same expression, and a max does not depend on the
// order it visits them in. It writes no delay vector and allocates
// nothing once the columns are cached and the epoch's order is sorted.
func (inc *Incremental) MaxWithEdge(e graph.Edge, cutoff float64) (float64, error) {
	var r rank1
	if err := inc.addition(&r, e); err != nil {
		return 0, err
	}
	return r.cutoffMax(inc.sinkOrder(), cutoff), nil
}

// WithWiden returns the delay vector (s) with existing edge e widened by one
// width step. Under the first-order width model (resistance ∝ 1/w,
// capacitance ∝ w), one extra width unit is exactly one additional
// unit-width wire in parallel — the same rank-1 update as WithEdge, with
// width-independent increments Δg = 1/(r·len) and Δc/2 = c·len/2. Like
// WithEdge, it returns the evaluator's probe buffer.
func (inc *Incremental) WithWiden(e graph.Edge) ([]float64, error) {
	if err := inc.fresh(); err != nil {
		return nil, err
	}
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
	var r rank1
	if err := inc.withConductance(&r, e.U, e.V, dg, dHalfC); err != nil {
		return nil, err
	}
	return r.fill(inc), nil
}

// sinkOrder returns the sinks (nodes 1..NumPins-1) in descending base
// delay, ties going to the lower index: the order the cutoff probes visit
// them in, so the sinks most likely to stay critical come first. It is
// sorted once per epoch into the workspace's buffer, and must not be
// modified.
func (inc *Incremental) sinkOrder() []int {
	ws := inc.ws
	if ws.orderGen == ws.gen {
		return ws.order
	}
	n := min(inc.topo.NumPins(), len(inc.base))
	if cap(ws.order) < n {
		ws.order = make([]int, 0, n)
	}
	order := ws.order[:0]
	for i := 1; i < n; i++ {
		order = append(order, i)
	}
	base := inc.base
	slices.SortFunc(order, func(a, b int) int {
		if c := cmp.Compare(base[b], base[a]); c != 0 {
			return c
		}
		return a - b
	})
	ws.order, ws.orderGen = order, ws.gen
	return order
}

// rank3 is a prepared rank-3 tap probe (see WithTap): at(i) is node i's
// delay (s) with the tap applied, from the three cached columns.
type rank3 struct {
	base, colU, colV, col0 []float64
	dcU, dcV, dc0          float64    // F
	s                      [3]float64 // the Woodbury solution
}

// at is t̃_i − (Y·s)_i with t̃ and the Y columns as in tap, written out
// with the same operations in the same order, and small enough to inline
// into the probe loops.
func (r *rank3) at(i int) float64 {
	u, v, o := r.colU[i], r.colV[i], r.col0[i]
	return r.base[i] + r.dcU*u + r.dcV*v + r.dc0*o - r.s[0]*(u-v) - r.s[1]*(u-o) - r.s[2]*(v-o)
}

// fill writes every node's delay into the probe buffer and returns it.
func (r *rank3) fill(inc *Incremental) []float64 {
	out := inc.probeBuf()
	for i := range out {
		out[i] = r.at(i)
	}
	return out
}

// cutoffMax is the cutoff probe over the sinks (see MaxWithTap).
func (r *rank3) cutoffMax(order []int, cutoff float64) float64 {
	var worst float64
	for _, i := range order {
		if d := r.at(i); d > worst {
			if worst = d; worst > cutoff {
				break
			}
		}
	}
	return worst
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
	var r rank3
	if err := inc.tap(&r, e, pt); err != nil {
		return nil, err
	}
	return r.fill(inc), nil
}

// MaxWithTap is the cutoff probe of the tap WithTap describes, exactly as
// MaxWithEdge is of an edge: the max over the sinks, or the first partial
// max in sinkOrder that exceeds cutoff.
func (inc *Incremental) MaxWithTap(e graph.Edge, pt geom.Point, cutoff float64) (float64, error) {
	var r rank3
	if err := inc.tap(&r, e, pt); err != nil {
		return 0, err
	}
	return r.cutoffMax(inc.sinkOrder(), cutoff), nil
}

// tap counts one probe and prepares in r the rank-3 update of WithTap.
func (inc *Incremental) tap(r *rank3, e graph.Edge, pt geom.Point) error {
	if err := inc.fresh(); err != nil {
		return err
	}
	e = e.Canon()
	if !inc.topo.HasEdge(e) {
		return fmt.Errorf("elmore: tapping absent edge %v", e)
	}
	if e.U == 0 || e.V == 0 {
		// A tap candidate on a source-incident edge degenerates to a point
		// on that edge's bounding box containing the source; the sweeps
		// never produce one.
		return fmt.Errorf("elmore: tap on source-incident edge %v", e)
	}
	a, b, src := inc.topo.Point(e.U), inc.topo.Point(e.V), inc.topo.Point(0)
	lenA := geom.Dist(a, pt)   // µm
	lenB := geom.Dist(pt, b)   // µm
	lenC := geom.Dist(src, pt) // µm
	//nontree:allow floatcmp Manhattan distance of coincident points is exactly 0.0; degenerate taps reduce to plain edges and are handled there
	if lenA == 0 || lenB == 0 || lenC == 0 {
		return ErrDegenerate
	}

	// Star conductances of the three new unit-width wires around s, and the
	// conductance of the removed edge exactly as it was stamped.
	gA := 1 / (inc.p.WireResistance * lenA) // Ω⁻¹
	gB := 1 / (inc.p.WireResistance * lenB) // Ω⁻¹
	gC := 1 / (inc.p.WireResistance * lenC) // Ω⁻¹
	gSum := gA + gB + gC                    // Ω⁻¹
	// The removed edge's conductance, from its resistance computed as
	// rc.Lump stamped it.
	wOld := inc.edgeWidth(e)
	gOld := 1 / (inc.p.WireResistance * inc.topo.EdgeLength(e) / wOld) // Ω⁻¹

	// Eliminating s (Schur complement) turns the star into a triangle among
	// {u, v, 0} with conductances g_x·g_y/Σg, and distributes s's shunt
	// capacitance c_s to its neighbours in proportion g_x/Σg.
	dguv := gA*gB/gSum - gOld // Ω⁻¹
	dgu0 := gA * gC / gSum    // Ω⁻¹
	dgv0 := gB * gC / gSum    // Ω⁻¹

	oldHalfC := inc.p.WireCapacitance * inc.topo.EdgeLength(e) * wOld / 2 // F
	capS := inc.p.WireCapacitance * (lenA + lenB + lenC) / 2              // F
	dcU := inc.p.WireCapacitance*lenA/2 - oldHalfC + gA/gSum*capS         // F
	dcV := inc.p.WireCapacitance*lenB/2 - oldHalfC + gB/gSum*capS         // F
	dc0 := inc.p.WireCapacitance*lenC/2 + gC/gSum*capS                    // F

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
		return fmt.Errorf("elmore: rank-3 tap update degenerate for %v: %w", e, err)
	}
	r.base, r.colU, r.colV, r.col0 = inc.base, colU, colV, col0
	r.dcU, r.dcV, r.dc0, r.s = dcU, dcV, dc0, s
	return nil
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
func (inc *Incremental) WideningBound(e graph.Edge) (float64, error) {
	if err := inc.fresh(); err != nil {
		return 0, err
	}
	e = e.Canon()
	return math.Abs(inc.base[e.U] - inc.base[e.V]), nil
}
