package core

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"nontree/internal/graph"
	"nontree/internal/obs"
	"nontree/internal/rc"
	"nontree/internal/trace"
)

// WireSizeOptions holds the WSORG-specific knob of WireSize; everything
// else comes from the run's Options.
type WireSizeOptions struct {
	// MaxWidth is the largest width on the discrete grid (paper Section
	// 5.2: "in most practical applications a discrete grid is used, and
	// thus the range of w may be restricted to the integers"). Default 4.
	MaxWidth int
}

// WireSizeResult reports a WSORG run.
type WireSizeResult struct {
	// Widths maps every edge to its final width (unit edges included).
	Widths map[graph.Edge]int
	// InitialObjective and FinalObjective bracket the optimization.
	InitialObjective, FinalObjective float64
	// Widenings counts accepted width increments.
	Widenings int
	// Evaluations counts oracle invocations.
	Evaluations int
}

// Fingerprint renders the sizing decisions in a canonical, bit-exact text
// form: the width map in canonical edge order, the bracketing objectives as
// hex float literals, and the widening count. Evaluations is excluded for
// the same reason as in Result.Fingerprint — scoring paths differ in effort
// by design, never in decisions.
func (r *WireSizeResult) Fingerprint() string {
	edges := make([]graph.Edge, 0, len(r.Widths))
	for e := range r.Widths {
		edges = append(edges, e)
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].U != edges[j].U {
			return edges[i].U < edges[j].U
		}
		return edges[i].V < edges[j].V
	})
	var b strings.Builder
	b.WriteString("widths=")
	for i, e := range edges {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d-%d:%d", e.U, e.V, r.Widths[e])
	}
	fmt.Fprintf(&b, "\ninitial=%s\nfinal=%s\nwidenings=%d\n",
		strconv.FormatFloat(r.InitialObjective, 'x', -1, 64),
		strconv.FormatFloat(r.FinalObjective, 'x', -1, 64),
		r.Widenings)
	return b.String()
}

// WidthFunc converts the integer width assignment into the rc.WidthFunc
// consumed by circuit construction.
func (r *WireSizeResult) WidthFunc() rc.WidthFunc {
	return func(e graph.Edge) float64 {
		if w, ok := r.Widths[e.Canon()]; ok {
			return float64(w)
		}
		return 1
	}
}

// WireSize greedily optimizes the WSORG width function (paper Section 5.2)
// over a fixed routing graph: repeatedly widen the single edge whose
// one-step widening most improves the objective, until no widening helps or
// every edge is at MaxWidth. Width w scales edge resistance by 1/w and
// capacitance by w — the first-order model under which "two separate
// parallel wires of width w ... [are] equivalent to a single wire of width
// 2w" as the paper observes.
//
// opts configures the run as for LDRG, with three exceptions: WireSize sets
// opts.Width itself, and it adds no edges, so MaxAddedEdges and
// CandidateFilter are ignored. Widening candidates carry the proposed width
// in the trace, and accepted widenings emit wiresize_step events.
func WireSize(t *graph.Topology, wopts WireSizeOptions, opts Options) (_ *WireSizeResult, rerr error) {
	defer func() { rerr = tagRequest(opts.RequestID, rerr) }()
	widths := map[graph.Edge]int{}
	opts.Width = func(e graph.Edge) float64 { return float64(widths[e.Canon()]) }
	if err := checkSeed(t, &opts); err != nil {
		return nil, err
	}
	maxW := wopts.MaxWidth
	if maxW <= 0 {
		maxW = 4
	}
	if maxW == 1 {
		return nil, errors.New("core: MaxWidth of 1 leaves nothing to optimize")
	}
	for _, e := range t.Edges() {
		widths[e] = 1
	}
	res := &WireSizeResult{Widths: widths}
	obj := opts.objective()
	eng, delays, err := newSweepEngine(t, &opts, obj, &res.Evaluations)
	if err != nil {
		return nil, err
	}
	cur, err := obj.Eval(delays, t.NumPins())
	if err != nil {
		return nil, fmt.Errorf("core: WSORG initial evaluation: %w", err)
	}
	res.InitialObjective = cur
	for sweep := 1; ; sweep++ {
		// Widening candidates in canonical edge order (fixes tie-breaking).
		var cands []graph.Edge
		for _, e := range t.Edges() {
			if widths[e] < maxW {
				cands = append(cands, e)
			}
		}
		eng.rec.Add(obs.CtrWidenCandidates, int64(len(cands)))
		eng.tr.Emit(trace.Event{Kind: trace.KindSweepStart, Sweep: sweep, N: int64(len(cands))})
		win, ok, err := eng.scan(t, sweep, cur, candidates{
			n: len(cands),
			full: func(i int, t *graph.Topology) (float64, error) {
				val, err := eng.score(t, func(e graph.Edge) float64 {
					w := widths[e.Canon()]
					if e.Canon() == cands[i] {
						w++
					}
					return float64(w)
				})
				if err != nil {
					return 0, fmt.Errorf("core: WSORG widening %v: %w", cands[i], err)
				}
				return val, nil
			},
			probe: func(i int) ([]float64, error) {
				delays, err := eng.inc.WithWiden(cands[i])
				if err != nil {
					return nil, fmt.Errorf("core: incremental widening %v: %w", cands[i], err)
				}
				return delays, nil
			},
			bound: func(i int) float64 { return eng.inc.WideningBound(cands[i]) },
			event: func(i int) trace.Event {
				return trace.Event{U: cands[i].U, V: cands[i].V, Width: widths[cands[i]] + 1}
			},
		})
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		e := graph.Edge{U: win.ev.U, V: win.ev.V}
		widths[e]++
		if err := eng.adopt(win.sol); err != nil {
			return nil, fmt.Errorf("core: adopting the solution of widening %v: %w", e, err)
		}
		res.Widenings++
		eng.rec.Add(obs.CtrWidenings, 1)
		win.ev.Kind = trace.KindWireSizeStep
		eng.tr.Emit(win.ev)
		cur = win.ev.After
	}

	res.FinalObjective = cur
	return res, nil
}

// MetalArea returns the width-weighted wirelength Σ w(e)·len(e) of the
// topology under a width assignment — the WSORG analogue of routing cost.
func MetalArea(t *graph.Topology, widths map[graph.Edge]int) float64 {
	var sum float64
	for _, e := range t.Edges() {
		w := widths[e]
		if w <= 0 {
			w = 1
		}
		sum += float64(w) * t.EdgeLength(e)
	}
	return sum
}
