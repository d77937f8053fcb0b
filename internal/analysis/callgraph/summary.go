package callgraph

import (
	"fmt"
	"sort"
)

// Summarizer drives a bottom-up per-function summary computation over one
// package's call graph. The engine condenses the in-package graph into
// strongly connected components (mutual recursion), visits the components
// callee-first, and iterates Transfer to a fixpoint inside each
// component. Cross-package callees are resolved through External — in
// practice the analyzer's Facts store, which the dependency-ordered
// driver guarantees is already populated for every import.
type Summarizer[S any] struct {
	// Bottom returns the initial summary of a node (the lattice bottom).
	Bottom func(n *Node) S
	// Transfer recomputes a node's summary given a lookup for callee
	// summaries. The lookup reports false for unknown callees (untracked
	// function values, out-of-repo calls); Transfer must treat those as
	// having no effect or apply its own worst-case, per analyzer policy.
	Transfer func(n *Node, callee func(id string) (S, bool)) S
	// Equal reports whether two summaries are equal; it decides fixpoint
	// termination, so it must ignore any incomparable witness metadata
	// the summary carries for diagnostics.
	Equal func(a, b S) bool
	// External resolves a callee outside this package's graph.
	External func(id string) (S, bool)
}

// sccBudget bounds fixpoint iterations per component: lattice height is a
// small constant for every summarizer in this repository, so anything
// past |SCC| * sccIterFactor iterations means a Transfer/Equal pair that
// does not form a monotone finite lattice — a bug worth a loud panic, not
// a silent half-result (mirroring cfg.Forward's budget).
const sccIterFactor = 64

// Summarize computes the fixpoint summaries of every node in the
// graph. The result maps node ID → summary and is complete: literals
// included.
func Summarize[S any](g *Graph, s Summarizer[S]) map[string]S {
	out := make(map[string]S, len(g.Nodes))
	lookup := func(id string) (S, bool) {
		if v, ok := out[id]; ok {
			return v, true
		}
		if g.byID[id] != nil {
			// In-package callee not yet computed: same-SCC member mid-
			// fixpoint before its first Transfer. Treated as unknown;
			// the fixpoint iteration fills it in.
			var zero S
			return zero, false
		}
		if s.External != nil {
			return s.External(id)
		}
		var zero S
		return zero, false
	}
	for _, scc := range g.SCCs() {
		for _, n := range scc {
			out[n.ID] = s.Bottom(n)
		}
		budget := len(scc)*sccIterFactor + 4
		for {
			changed := false
			for _, n := range scc {
				next := s.Transfer(n, lookup)
				if !s.Equal(out[n.ID], next) {
					out[n.ID] = next
					changed = true
				}
			}
			if !changed {
				break
			}
			if budget--; budget < 0 {
				panic(fmt.Sprintf(
					"callgraph: summary fixpoint did not converge in SCC of %d node(s) containing %s — non-monotone Transfer or unbounded lattice",
					len(scc), scc[0].ID))
			}
		}
	}
	return out
}

// SCCs returns the strongly connected components of the in-package graph
// in reverse topological (callee-first) order: every edge leaving a
// component points to an earlier one. Edges to out-of-package nodes are
// ignored — their summaries come from External. The output is
// deterministic: Tarjan's algorithm seeded in Node order, members of each
// component sorted by ID.
func (g *Graph) SCCs() [][]*Node {
	type vstate struct {
		index, lowlink int
		onStack        bool
		visited        bool
	}
	states := make(map[*Node]*vstate, len(g.Nodes))
	for _, n := range g.Nodes {
		states[n] = &vstate{}
	}
	var (
		counter int
		stack   []*Node
		out     [][]*Node
	)
	// Iterative Tarjan: an explicit frame stack keeps deep call chains
	// (long pipelines of helpers) from overflowing the goroutine stack.
	type frame struct {
		n     *Node
		succs []*Node
		next  int
	}
	succsOf := func(n *Node) []*Node {
		var out []*Node
		seen := map[string]bool{}
		for _, c := range n.Calls {
			for _, t := range c.Targets {
				if seen[t] {
					continue
				}
				seen[t] = true
				if m := g.byID[t]; m != nil {
					out = append(out, m)
				}
			}
		}
		sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
		return out
	}
	var frames []frame
	push := func(n *Node) {
		st := states[n]
		st.visited = true
		st.index, st.lowlink = counter, counter
		counter++
		st.onStack = true
		stack = append(stack, n)
		frames = append(frames, frame{n: n, succs: succsOf(n)})
	}
	for _, root := range g.Nodes {
		if states[root].visited {
			continue
		}
		push(root)
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			st := states[f.n]
			if f.next < len(f.succs) {
				succ := f.succs[f.next]
				f.next++
				sst := states[succ]
				if !sst.visited {
					push(succ)
				} else if sst.onStack {
					if sst.index < st.lowlink {
						st.lowlink = sst.index
					}
				}
				continue
			}
			// Frame done: pop, propagate lowlink, maybe emit component.
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				pst := states[frames[len(frames)-1].n]
				if st.lowlink < pst.lowlink {
					pst.lowlink = st.lowlink
				}
			}
			if st.lowlink == st.index {
				var comp []*Node
				for {
					m := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					states[m].onStack = false
					comp = append(comp, m)
					if m == f.n {
						break
					}
				}
				sort.Slice(comp, func(i, j int) bool { return comp[i].ID < comp[j].ID })
				out = append(out, comp)
			}
		}
	}
	return out
}
