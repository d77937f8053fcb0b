// Package elmore computes Elmore delay for routing topologies.
//
// For trees it implements Eq. (1) of the paper (Rubinstein–Penfield–Horowitz
// form) in O(k) time with the classic two-pass traversal. For arbitrary
// graphs — which the paper notes require "additional transformations"
// (Chan–Karplus) — it uses the equivalent transfer-resistance definition:
//
//	t_i = Σ_j R_ij · C_j
//
// where R_ij is the resistance transfer from node j to node i of the
// grounded conductance network (driver resistance included). Since the
// transfer-resistance matrix is the inverse of the conductance matrix G,
// the whole delay vector is a single linear solve t = G⁻¹·c, making the
// graph evaluation fast enough to sit inside LDRG's greedy loop.
//
// On trees the two methods agree exactly; the test suite property-checks
// this equivalence on random topologies.
//
// Concurrency: every evaluator in this package (TreeDelays, GraphDelays,
// TwoPoleDelays, Bounds, EstimateDelays) assembles its matrices and
// workspaces per call and only reads its Topology/Lumped arguments, so
// concurrent evaluations of distinct topologies are safe — the property
// core's parallel candidate sweeps rely on. A Conductance factorization is
// likewise read-only after FactorConductance and may be shared across
// goroutines. The incremental evaluator (incremental.go) is the one stateful
// exception: an Incremental caches per-endpoint solve columns and must be
// confined to a single goroutine.
package elmore

import (
	"errors"
	"fmt"

	"nontree/internal/graph"
	"nontree/internal/linalg"
	"nontree/internal/rc"
	"nontree/internal/scratch"
)

// Errors reported by the delay evaluators.
var (
	ErrNotTree      = errors.New("elmore: topology is not a tree")
	ErrDisconnected = errors.New("elmore: topology is not connected")
	ErrSizeMismatch = errors.New("elmore: lumped network does not match topology")
)

// TreeDelays returns the Elmore delay (s) from the source (node 0) to every
// node of a tree topology, per Eq. (1) of the paper:
//
//	t(n_i) = r_d·C_{n0} + Σ_{e_j ∈ path(n0,n_i)} r_{e_j}(c_{e_j}/2 + C_j)
//
// computed in O(k) with a post-order capacitance pass and a pre-order
// delay pass over the lumped (single-π) network.
func TreeDelays(t *graph.Topology, l *rc.Lumped) ([]float64, error) {
	if len(l.NodeCap) != t.NumNodes() {
		return nil, ErrSizeMismatch
	}
	if !t.IsTree() {
		return nil, ErrNotTree
	}
	parents, err := t.RootAt(0)
	if err != nil {
		return nil, err
	}
	order := bfsOrder(t, 0)

	// Post-order accumulation of subtree capacitance.
	subCap := make([]float64, t.NumNodes())
	copy(subCap, l.NodeCap)
	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		if p := parents[n]; p >= 0 {
			subCap[p] += subCap[n]
		}
	}

	// Pre-order delay propagation. The source term r_d·C_{n0} charges the
	// entire network through the driver.
	delays := make([]float64, t.NumNodes())
	delays[0] = l.DriverResistance * subCap[0]
	for _, n := range order[1:] {
		p := parents[n]
		r := l.EdgeRes[graph.Edge{U: p, V: n}.Canon()]
		delays[n] = delays[p] + r*subCap[n]
	}
	return delays, nil
}

func bfsOrder(t *graph.Topology, root int) []int {
	order := make([]int, 0, t.NumNodes())
	seen := make([]bool, t.NumNodes())
	queue := []int{root}
	seen[root] = true
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		order = append(order, n)
		for _, m := range t.Neighbors(n) {
			if !seen[m] {
				seen[m] = true
				queue = append(queue, m)
			}
		}
	}
	return order
}

// GraphDelays returns the Elmore delay (s) from the source to every node of an
// arbitrary connected topology (cycles allowed), via the transfer-
// resistance formulation: one LU factorization of the grounded conductance
// matrix and a single solve of G·t = c.
func GraphDelays(t *graph.Topology, l *rc.Lumped) ([]float64, error) {
	lu, err := FactorConductance(t, l)
	if err != nil {
		return nil, err
	}
	return lu.Delays(l)
}

// Conductance is a factored grounded conductance matrix of a topology,
// reusable across multiple capacitance vectors (e.g. wire-sizing sweeps
// that change only widths' capacitive loading would still need refactoring,
// but critical-sink reweighting does not).
type Conductance struct {
	lu   linalg.Factorization
	size int
}

// conductanceWork is FactorConductance's scratch: the rows of the matrix
// under assembly, which the factorization copies from.
type conductanceWork struct {
	ints []int
	vals []float64
}

var conductanceScratch = scratch.New[conductanceWork]()

// FactorConductance assembles and factors the conductance matrix of the
// topology: edge conductances plus the driver conductance tying the source
// to ground. Isolated Steiner points are pinned with a tiny leak so the
// matrix stays non-singular without perturbing delays. The matrix is
// written straight into sparse rows and factored over its pattern, so the
// cost follows the topology's edges, not the square of its nodes.
func FactorConductance(t *graph.Topology, l *rc.Lumped) (*Conductance, error) {
	if len(l.NodeCap) != t.NumNodes() {
		return nil, ErrSizeMismatch
	}
	if !t.Connected() {
		return nil, ErrDisconnected
	}
	n := t.NumNodes()
	// Row i holds its neighbours and itself, ascending. The edges are
	// walked in canonical order (each node's neighbours above it,
	// ascending). The walk fills every row below its diagonal in
	// ascending column order, leaving cursor[i] on the diagonal, and
	// writes row u's entries above the diagonal when it reaches u. Each
	// diagonal is summed in the walk's order, so floating-point
	// accumulation is bit-for-bit reproducible run to run (map order
	// would perturb it).
	nnz := n + 2*t.NumEdges()
	w := conductanceScratch.Get()
	defer conductanceScratch.Put(w)
	if cap(w.ints) < 2*n+1+nnz || cap(w.vals) < nnz+n {
		w.ints, w.vals = make([]int, 2*n+1+nnz), make([]float64, nnz+n)
	}
	ints, vals := w.ints[:2*n+1+nnz], w.vals[:nnz+n]
	ptr, cursor, col := ints[:n+1], ints[n+1:2*n+1], ints[2*n+1:]
	val, diag := vals[:nnz], vals[nnz:]
	ptr[0] = 0
	clear(diag)
	for i := 0; i < n; i++ {
		ptr[i+1] = ptr[i] + t.Degree(i) + 1
		cursor[i] = ptr[i]
	}
	for u := 0; u < n; u++ {
		nbrs := t.Neighbors(u)
		below := 0
		for below < len(nbrs) && nbrs[below] < u {
			below++
		}
		for k, v := range nbrs[below:] {
			e := graph.Edge{U: u, V: v}
			r, ok := l.EdgeRes[e]
			if !ok {
				return nil, fmt.Errorf("elmore: lumped network missing edge %v", e)
			}
			if r <= 0 {
				return nil, fmt.Errorf("elmore: edge %v has non-positive resistance %g", e, r)
			}
			cond := 1 / r
			diag[u] += cond
			diag[v] += cond
			above := cursor[u] + 1 + k
			col[above], val[above] = v, 0-cond
			col[cursor[v]], val[cursor[v]] = u, 0-cond
			cursor[v]++
		}
	}
	if l.DriverResistance <= 0 {
		return nil, errors.New("elmore: driver resistance must be positive")
	}
	diag[0] += 1 / l.DriverResistance

	// Isolated Steiner points have an all-zero row; pin them to ground with
	// a conductance far below the circuit's but far above the pivot
	// tolerance (they carry no capacitance, so their solve values are
	// irrelevant and no delay is perturbed).
	leak := 1e-6 / l.DriverResistance
	for i := 1; i < n; i++ {
		if t.Degree(i) == 0 {
			diag[i] = leak
		}
	}
	for i, d := range cursor {
		col[d], val[d] = i, diag[i]
	}

	// The grounded conductance matrix is SPD by construction, so the
	// Cholesky path applies (half the flops of LU); FactorSPD falls back
	// to pivoted LU if numerical noise ever breaks definiteness.
	lu, err := linalg.FactorSPD(linalg.NewCSR(n, n, ptr, col, val))
	if err != nil {
		return nil, fmt.Errorf("elmore: conductance matrix: %w", err)
	}
	return &Conductance{lu: lu, size: n}, nil
}

// Delays solves G·t = c for the delay vector (s), where c is the lumped
// node capacitance vector.
func (c *Conductance) Delays(l *rc.Lumped) ([]float64, error) {
	if len(l.NodeCap) != c.size {
		return nil, ErrSizeMismatch
	}
	return c.lu.Solve(l.NodeCap), nil
}

// TransferResistance returns R_ij (Ω): the voltage at node i per unit current
// injected at node j (everything measured against ground through the
// driver). Exposed for tests and for the wire-sizing sensitivity analysis.
func (c *Conductance) TransferResistance(i, j int) (float64, error) {
	if i < 0 || i >= c.size || j < 0 || j >= c.size {
		return 0, errors.New("elmore: transfer resistance index out of range")
	}
	x := make([]float64, c.size)
	x[j] = 1
	c.lu.SolveInPlace(x)
	return x[i], nil
}

// MaxSinkDelay returns max over the net's sinks (topology nodes
// 1..numPins-1) of delays (s) — the paper's t(G) objective. Steiner nodes
// are junctions, not signal destinations, and are excluded.
func MaxSinkDelay(delays []float64, numPins int) float64 {
	var worst float64
	for n := 1; n < numPins && n < len(delays); n++ {
		if delays[n] > worst {
			worst = delays[n]
		}
	}
	return worst
}

// ArgMaxSinkDelay returns the sink node with the largest delay, and that
// delay (s). Used by heuristics H1/H2, which connect the source to the
// worst-delay sink.
func ArgMaxSinkDelay(delays []float64, numPins int) (int, float64) {
	worstNode, worst := -1, -1.0
	for n := 1; n < numPins && n < len(delays); n++ {
		if delays[n] > worst {
			worst = delays[n]
			worstNode = n
		}
	}
	return worstNode, worst
}

// WeightedSinkDelay returns Σ α_i·t(n_i) over sinks — the CSORG objective
// of Section 5.1, in seconds. The dimensionless alphas[i] weights sink
// node i+1 (alphas is indexed by sink, not by node). A nil alphas means
// uniform weights (average delay up to a constant).
func WeightedSinkDelay(delays []float64, numPins int, alphas []float64) (float64, error) {
	if alphas != nil && len(alphas) != numPins-1 {
		return 0, fmt.Errorf("elmore: %d sink weights for %d sinks", len(alphas), numPins-1)
	}
	var sum float64
	for n := 1; n < numPins && n < len(delays); n++ {
		w := 1.0
		if alphas != nil {
			w = alphas[n-1]
		}
		sum += w * delays[n]
	}
	return sum, nil
}
