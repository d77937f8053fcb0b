// Package epochcheck enforces the elmore.Incremental epoch protocol: the
// evaluator factors the topology once and answers WithEdge/WithWiden/
// WithTap probes against that factorization, so any *committed* topology
// mutation (Topology.AddEdge/RemoveEdge/AddSteinerNode, or a width-map
// write keyed by graph.Edge) invalidates it until a new epoch starts:
// Refactor re-derives the base state, or Adopt installs the committed
// modification's own solution. A probe reachable after a mutation with
// neither in between answers from stale caches — the stale-cache bug the
// incremental evaluator once had — and is reported.
//
// The check is a forward may-be-stale dataflow over the
// internal/analysis/cfg graph. Facts track, per evaluator root (the base
// variable of eng.inc.WithEdge-style chains, so an engine struct wrapping
// the evaluator and its refactor() helper are one root):
//
//   - a global "some mutation committed" bit, and
//   - per-root overrides: Refactor()/refactor() or Adopt()/adopt() on the
//     root, or assigning a fresh evaluator (or evaluator-holding struct) to
//     it, marks it consistent again.
//
// At merges, stale-on-any-path wins. The analysis is intra-procedural:
// mutations hidden inside helper calls are invisible (the sanctioned
// sites all call refactor() immediately after the helper anyway), and a
// probe whose receiver has no trackable root is skipped.
package epochcheck

import (
	"go/ast"
	"go/types"

	"nontree/internal/analysis"
	"nontree/internal/analysis/cfg"
)

var Analyzer = &analysis.Analyzer{
	Name: "epochcheck",
	Doc:  "no WithEdge/WithWiden/WithTap probe may be reachable after a committed topology mutation without an intervening Refactor or Adopt",
	Run:  run,
	Scope: []string{
		"internal/core",
		"internal/elmore",
	},
}

// useMethods are the Incremental probes that answer from the current
// factorization and its caches.
var useMethods = map[string]bool{
	"WithEdge":      true,
	"WithWiden":     true,
	"WithTap":       true,
	"WideningBound": true,
	"BaseDelays":    true,
}

// epochMethods start a new epoch on their root: the evaluator's Refactor
// and Adopt, and the lower-case engine helpers wrapping them.
var epochMethods = map[string]bool{
	"Refactor": true,
	"refactor": true,
	"Adopt":    true,
	"adopt":    true,
}

// mutMethods are the Topology mutators that commit a modification.
var mutMethods = map[string]bool{
	"AddEdge":        true,
	"RemoveEdge":     true,
	"AddSteinerNode": true,
}

// epochState is the dataflow fact: anyMut records that some mutation
// committed on some path; explicit overrides the default per root (false =
// refactored/freshly created since the last mutation).
type epochState struct {
	anyMut   bool
	explicit map[types.Object]bool
}

func (s epochState) eff(root types.Object) bool {
	if v, ok := s.explicit[root]; ok {
		return v
	}
	return s.anyMut
}

func (s epochState) clone() epochState {
	c := epochState{anyMut: s.anyMut, explicit: make(map[types.Object]bool, len(s.explicit))}
	for k, v := range s.explicit {
		c.explicit[k] = v
	}
	return c
}

func run(pass *analysis.Pass) error {
	c := &checker{pass: pass}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				c.checkFunc(fd.Body)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				c.checkFunc(lit.Body)
			}
			return true
		})
	}
	return nil
}

type checker struct {
	pass *analysis.Pass
}

func (c *checker) checkFunc(body *ast.BlockStmt) {
	if !c.mentionsEvaluator(body) {
		return
	}
	g := cfg.New(body)
	ins := cfg.Forward(g, cfg.Flow{
		Entry: func() any { return epochState{explicit: map[types.Object]bool{}} },
		Transfer: func(b *cfg.Block, in any) any {
			state := in.(epochState).clone()
			for _, n := range b.Nodes {
				c.apply(n, &state)
			}
			return state
		},
		Meet: func(a, b any) any {
			sa, sb := a.(epochState), b.(epochState)
			out := epochState{anyMut: sa.anyMut || sb.anyMut, explicit: map[types.Object]bool{}}
			for r := range sa.explicit {
				out.explicit[r] = sa.eff(r) || sb.eff(r)
			}
			for r := range sb.explicit {
				if _, done := out.explicit[r]; !done {
					out.explicit[r] = sa.eff(r) || sb.eff(r)
				}
			}
			return out
		},
		Equal: func(a, b any) bool {
			sa, sb := a.(epochState), b.(epochState)
			if sa.anyMut != sb.anyMut || len(sa.explicit) != len(sb.explicit) {
				return false
			}
			for r, v := range sa.explicit {
				if w, ok := sb.explicit[r]; !ok || v != w {
					return false
				}
			}
			return true
		},
	})
	for _, b := range g.Blocks {
		if ins[b.Index] == nil {
			continue
		}
		state := ins[b.Index].(epochState).clone()
		for _, n := range b.Nodes {
			c.checkUses(n, state)
			c.apply(n, &state)
		}
	}
}

// mentionsEvaluator pre-filters: a body with no probe-shaped call needs no
// dataflow.
func (c *checker) mentionsEvaluator(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if sel, ok := n.(*ast.SelectorExpr); ok && useMethods[sel.Sel.Name] {
			if isIncremental(c.pass.TypeOf(sel.X)) {
				found = true
			}
		}
		return true
	})
	return found
}

// apply folds one node's effects into state: mutations first, then
// refactors and fresh-evaluator assignments (so `t.AddEdge(e)` followed on
// the same line by a refactor behaves like the source order suggests).
func (c *checker) apply(node ast.Node, state *epochState) {
	mutated := false
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				if mutMethods[sel.Sel.Name] && isTopology(c.pass.TypeOf(sel.X)) {
					mutated = true
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if isEdgeKeyedIndex(c.pass, lhs) {
					mutated = true
				}
			}
		case *ast.IncDecStmt:
			if isEdgeKeyedIndex(c.pass, n.X) {
				mutated = true
			}
		}
		return true
	})
	if mutated {
		// Every evaluator's factorization is suspect until re-established.
		state.anyMut = true
		for r := range state.explicit {
			delete(state.explicit, r)
		}
	}
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if !epochMethods[sel.Sel.Name] || !isEvaluatorHolder(c.pass.TypeOf(sel.X)) {
				return true
			}
			if root := c.rootObj(sel.X); root != nil {
				state.explicit[root] = false
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				obj := c.pass.Info.Defs[id]
				if obj == nil {
					obj = c.pass.Info.Uses[id]
				}
				if obj != nil && isEvaluatorHolder(obj.Type()) {
					// A freshly created/assigned evaluator (or engine
					// wrapping one) starts consistent with its topology.
					state.explicit[obj] = false
				}
			}
		}
		return true
	})
}

// checkUses reports probes in one node that run against a may-be-stale
// factorization.
func (c *checker) checkUses(node ast.Node, state epochState) {
	ast.Inspect(node, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !useMethods[sel.Sel.Name] || !isIncremental(c.pass.TypeOf(sel.X)) {
			return true
		}
		root := c.rootObj(sel.X)
		if root == nil {
			return true
		}
		if state.eff(root) {
			c.pass.Reportf(call.Pos(), "%s on %s may answer from a stale factorization: the topology was mutated since its last Refactor or Adopt", sel.Sel.Name, root.Name())
		}
		return true
	})
}

func (c *checker) rootObj(e ast.Expr) types.Object {
	id := analysis.RootIdent(e)
	if id == nil {
		return nil
	}
	if obj := c.pass.Info.Uses[id]; obj != nil {
		return obj
	}
	return c.pass.Info.Defs[id]
}

// isEdgeKeyedIndex reports whether e is m[k] where m is a map keyed by
// graph.Edge — the width-table write WSORG commits modifications through.
func isEdgeKeyedIndex(pass *analysis.Pass, e ast.Expr) bool {
	idx, ok := e.(*ast.IndexExpr)
	if !ok {
		return false
	}
	t := pass.TypeOf(idx.X)
	if t == nil {
		return false
	}
	m, ok := t.Underlying().(*types.Map)
	if !ok {
		return false
	}
	return isNamedFrom(m.Key(), "Edge", "graph")
}

func isIncremental(t types.Type) bool { return isNamedFrom(t, "Incremental", "elmore") }
func isTopology(t types.Type) bool    { return isNamedFrom(t, "Topology", "graph") }

// isEvaluatorHolder reports whether t is an Incremental or a struct (or
// pointer to one) with an Incremental-typed field — the sweepEngine shape.
func isEvaluatorHolder(t types.Type) bool {
	if isIncremental(t) {
		return true
	}
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if isIncremental(st.Field(i).Type()) {
			return true
		}
	}
	return false
}

// isNamedFrom matches a (possibly pointed-to) named type by name and
// declaring package name. Matching the package by name rather than import
// path lets testdata stubs stand in for the real packages, exactly like a
// real engine in package core matching "elmore".
func isNamedFrom(t types.Type, name, pkgName string) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Name() == pkgName
}
