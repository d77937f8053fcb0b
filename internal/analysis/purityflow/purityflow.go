// Package purityflow enforces the DelayOracle thread-safety contract
// (DESIGN.md §7, §14): when Options.Workers != 1 the greedy sweeps call
// SinkDelays concurrently from many goroutines, so oracle and objective
// implementations must build their workspaces per call. The analyzer
// flags any SinkDelays, Evaluate, or Eval method that writes receiver
// fields or package-level variables — directly in its body, or through a
// mutation buried arbitrarily deep in the helpers it calls.
//
// # Model
//
// Every function gets a bottom-up side-effect summary (callgraph SCC
// fixpoint, exported as the fact "pf.fn.<ID>"): whether it writes
// receiver state, which package-level variables it writes, and which
// pointer-like parameters it writes through. Effects compose at call
// sites by classifying the receiver/argument expression roots in the
// caller's context — a callee that mutates its receiver gives the caller
// a receiver effect when invoked on the caller's receiver, a parameter
// effect when invoked on a parameter, and no effect when invoked on a
// per-call local (the sanctioned workspace idiom). Function literals
// track writes to captured variables in-memory and re-classify them in
// the enclosing function.
//
// Diagnostics fire only at oracle entry points (SinkDelays, Evaluate,
// Eval), for receiver and global effects: each direct write is reported
// at its own position, each call-derived effect once per call chain.
// Writes into the method's own out-parameters are the sanctioned
// caller-provided-buffer idiom. The one sanctioned exception is the
// documented single-threaded incremental evaluator: methods whose
// receiver type is named Incremental in package nontree/internal/elmore
// are skipped. Other exemptions require a justified
// //nontree:allow purityflow annotation.
//
// # Soundness caveats (DESIGN.md §14)
//
// Aliasing (b := o.buf; b[0] = x), untrackable call roots
// (obs.OrNop(o.Obs).Add — the root is a call result), function values
// flowing through fields, and writes made by goroutines the oracle
// starts remain invisible; the -race sweeps in internal/core are the
// dynamic backstop.
package purityflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"

	"nontree/internal/analysis"
	"nontree/internal/analysis/callgraph"
)

var Analyzer = &analysis.Analyzer{
	Name: "purityflow",
	Doc:  "oracle methods (SinkDelays/Evaluate/Eval) must be pure through every resolvable call chain",
	Run:  run,
	// No Scope: summaries must exist for every package an oracle method
	// can call into.
}

// methodNames are the oracle entry points covered by the contract.
var methodNames = map[string]bool{
	"SinkDelays": true,
	"Evaluate":   true,
	"Eval":       true,
}

// exceptionPkg/exceptionType identify the documented single-threaded
// incremental Elmore evaluator, exempt by design.
const (
	exceptionPkg  = "nontree/internal/elmore"
	exceptionType = "Incremental"
)

// factPrefix keys the exported per-function summaries.
const factPrefix = "pf.fn."

// witness locates one effect: At is the ultimate write site ("file:line"),
// Via the call chain from the summarized function down to it (empty for a
// direct write).
type witness struct {
	At  string   `json:"at"`
	Via []string `json:"via,omitempty"`
}

// fnSummary is the exported side-effect summary of one function.
type fnSummary struct {
	// Recv is set when the function may write its receiver's state.
	Recv *witness `json:"recv,omitempty"`
	// Globals maps qualified package-level variable names to witnesses.
	Globals map[string]witness `json:"globals,omitempty"`
	// Params maps decimal parameter indexes (pointer-like parameters
	// only) to witnesses for writes through them.
	Params map[string]witness `json:"params,omitempty"`
}

// effect is the in-memory form, carrying a reportable position (the
// current-package call or write site).
type effect struct {
	kind  int // kindRecv, kindGlobal, kindParam, kindFree
	name  string
	index int
	obj   types.Object
	pos   token.Pos
	at    string
	via   []string
	// lhs and verb describe a direct write ("writes"/"updates" lhs); lhs
	// is nil for call-derived effects.
	lhs  ast.Expr
	verb string
}

const (
	kindRecv = iota
	kindGlobal
	kindParam
	kindFree
)

func run(pass *analysis.Pass) error {
	g := callgraph.Build(pass)
	c := &checker{pass: pass, freeWrites: map[string][]effect{}}

	sums := callgraph.Summarize(g, callgraph.Summarizer[fnSummary]{
		Bottom: func(n *callgraph.Node) fnSummary { return fnSummary{} },
		Transfer: func(n *callgraph.Node, callee func(string) (fnSummary, bool)) fnSummary {
			return c.toSummary(c.effects(n, callee))
		},
		Equal: summariesEqual,
		External: func(id string) (fnSummary, bool) {
			var s fnSummary
			ok := pass.Facts.Import(factPrefix+id, &s)
			return s, ok
		},
	})
	for _, n := range g.Nodes {
		s := sums[n.ID]
		if s.Recv == nil && len(s.Globals) == 0 && len(s.Params) == 0 {
			continue
		}
		if err := pass.Facts.Export(factPrefix+n.ID, s); err != nil {
			return err
		}
	}

	// Report at oracle entry points, against the final summaries.
	lookup := func(id string) (fnSummary, bool) {
		if s, ok := sums[id]; ok {
			return s, true
		}
		var s fnSummary
		ok := pass.Facts.Import(factPrefix+id, &s)
		return s, ok
	}
	for _, n := range g.Nodes {
		fd := n.Decl
		if fd == nil || fd.Recv == nil || !methodNames[fd.Name.Name] {
			continue
		}
		if isException(pass, fd) {
			continue
		}
		reported := map[string]bool{}
		for _, e := range c.effects(n, lookup) {
			if e.kind != kindRecv && e.kind != kindGlobal {
				continue // out-params are the caller-provided-buffer idiom
			}
			if e.lhs != nil {
				reportDirect(pass, fd, e)
				continue
			}
			what := "receiver state"
			if e.kind == kindGlobal {
				what = "package-level variable " + e.name
			}
			key := what + "|" + strings.Join(e.via, ",")
			if reported[key] {
				continue
			}
			reported[key] = true
			pass.Reportf(e.pos,
				"%s calls %s, which writes %s (at %s): oracle methods must be pure "+
					"through every call chain (DESIGN.md §14)",
				fd.Name.Name, strings.Join(e.via, " -> "), what, e.at)
		}
	}
	return nil
}

// reportDirect reports a write made in the oracle method's own body.
func reportDirect(pass *analysis.Pass, fd *ast.FuncDecl, e effect) {
	if e.kind == kindRecv {
		pass.Reportf(e.pos,
			"%s receiver state %s in %s: oracles must be safe for concurrent "+
				"calls on distinct topologies — allocate per-call workspaces "+
				"(see DESIGN.md §7) or annotate //nontree:allow purityflow <why>",
			e.verb, exprString(e.lhs), fd.Name.Name)
		return
	}
	pass.Reportf(e.pos,
		"%s package-level variable %s in %s: oracles must not share "+
			"mutable state across concurrent calls (DESIGN.md §7)",
		e.verb, analysis.RootIdent(e.lhs).Name, fd.Name.Name)
}

func isException(pass *analysis.Pass, fd *ast.FuncDecl) bool {
	if pass.Pkg == nil || pass.Pkg.Path() != exceptionPkg {
		return false
	}
	if len(fd.Recv.List) == 0 {
		return false
	}
	t := fd.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.Ident:
			return x.Name == exceptionType
		default:
			return false
		}
	}
}

type checker struct {
	pass *analysis.Pass
	// freeWrites records, per function-literal node ID, writes to
	// variables captured from the enclosing function. types.Object does
	// not serialize, so these stay in-memory: captured-variable effects
	// are re-classified in the enclosing unit during its own summary and
	// either become receiver/global/param effects there or vanish
	// (writes to the enclosure's locals are per-call state).
	freeWrites map[string][]effect
}

// unitCtx classifies identifier roots for one function unit.
type unitCtx struct {
	c      *checker
	n      *callgraph.Node
	recv   map[types.Object]bool
	params map[types.Object]int
	ptrOK  map[types.Object]bool // pointer-like params: writes escape
	span   [2]token.Pos          // literal body span, for free-var detection
}

func (c *checker) context(n *callgraph.Node) *unitCtx {
	ctx := &unitCtx{
		c: c, n: n,
		recv:   map[types.Object]bool{},
		params: map[types.Object]int{},
		ptrOK:  map[types.Object]bool{},
	}
	var ftype *ast.FuncType
	if n.Decl != nil {
		ftype = n.Decl.Type
		if n.Decl.Recv != nil {
			for _, field := range n.Decl.Recv.List {
				for _, name := range field.Names {
					if obj := c.pass.Info.Defs[name]; obj != nil {
						ctx.recv[obj] = true
					}
				}
			}
		}
	} else if n.Lit != nil {
		ftype = n.Lit.Type
		ctx.span = [2]token.Pos{n.Lit.Pos(), n.Lit.End()}
	}
	if ftype != nil && ftype.Params != nil {
		idx := 0
		for _, field := range ftype.Params.List {
			names := field.Names
			if len(names) == 0 {
				idx++ // unnamed parameter still occupies an index
				continue
			}
			for _, name := range names {
				if obj := c.pass.Info.Defs[name]; obj != nil {
					ctx.params[obj] = idx
					if pointerish(obj.Type()) {
						ctx.ptrOK[obj] = true
					}
				}
				idx++
			}
		}
	}
	return ctx
}

// classify resolves a written-to root object to an effect kind in this
// unit's context; deref reports whether the write goes *through* the
// variable (selector/index/star) rather than rebinding it. The bool
// result is false when the write has no inter-procedural significance.
func (ctx *unitCtx) classify(obj types.Object, deref bool) (effect, bool) {
	switch {
	case ctx.recv[obj]:
		if !deref {
			return effect{}, false // rebinding the receiver copy
		}
		return effect{kind: kindRecv}, true
	default:
		if i, ok := ctx.params[obj]; ok {
			if !deref || !ctx.ptrOK[obj] {
				return effect{}, false // rebinding, or a value copy
			}
			return effect{kind: kindParam, index: i}, true
		}
	}
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil {
		return effect{}, false
	}
	if v.Parent() == v.Pkg().Scope() {
		return effect{kind: kindGlobal, name: v.Pkg().Path() + "." + v.Name()}, true
	}
	// A variable declared outside a literal's span is captured from the
	// enclosing function.
	if ctx.span[1] != 0 && (v.Pos() < ctx.span[0] || v.Pos() > ctx.span[1]) {
		return effect{kind: kindFree, obj: obj}, true
	}
	return effect{}, false // unit-local: per-call state
}

// effects computes one node's full effect list: direct writes plus
// call-site expansions of callee summaries and literal free-writes.
func (c *checker) effects(n *callgraph.Node, callee func(string) (fnSummary, bool)) []effect {
	var out []effect
	if n.Body == nil {
		return nil
	}
	ctx := c.context(n)
	add := func(e effect, pos token.Pos, at string, via []string) {
		e.pos, e.at, e.via = pos, at, via
		out = append(out, e)
	}

	// Direct writes.
	walkWrites(n, func(lhs ast.Expr, bare bool, verb string) {
		root := analysis.RootIdent(lhs)
		if root == nil {
			return
		}
		obj := c.pass.Info.Uses[root]
		if obj == nil {
			obj = c.pass.Info.Defs[root]
		}
		if obj == nil {
			return
		}
		// A bare-ident write rebinds receivers and parameters harmlessly
		// but still hits a global or a captured variable.
		if e, ok := ctx.classify(obj, !bare); ok {
			e.lhs, e.verb = lhs, verb
			add(e, lhs.Pos(), callgraph.PosString(c.pass.Fset, lhs.Pos()), nil)
		}
	})

	// Call-site expansion.
	for _, call := range n.Calls {
		if call.Go {
			// A goroutine's writes race rather than compose; the -race
			// sweep owns that. The literal's own summary still exists.
			continue
		}
		site, _ := call.Site.(*ast.CallExpr)
		for _, target := range call.Targets {
			cs, known := callee(target)
			pos := call.Site.Pos()
			classifyExpr := func(e ast.Expr, sub witness) {
				root := analysis.RootIdent(e)
				if root == nil {
					return // untrackable root (e.g. a call result): documented blind spot
				}
				obj := c.pass.Info.Uses[root]
				if obj == nil {
					obj = c.pass.Info.Defs[root]
				}
				if obj == nil {
					return
				}
				if eff, ok := ctx.classify(obj, true); ok {
					add(eff, pos, sub.At, append([]string{target}, sub.Via...))
				}
			}
			if known {
				if cs.Recv != nil && site != nil {
					if sel, ok := site.Fun.(*ast.SelectorExpr); ok {
						classifyExpr(sel.X, *cs.Recv)
					}
				}
				for _, gname := range sortedKeys(cs.Globals) {
					w := cs.Globals[gname]
					add(effect{kind: kindGlobal, name: gname}, pos, w.At,
						append([]string{target}, w.Via...))
				}
				if site != nil {
					for _, pidx := range sortedKeys(cs.Params) {
						i, err := strconv.Atoi(pidx)
						if err != nil || i >= len(site.Args) {
							continue
						}
						classifyExpr(site.Args[i], cs.Params[pidx])
					}
				}
			}
			// Same-package literal: re-classify its captured-variable
			// writes in this unit's context.
			for _, fe := range c.freeWrites[target] {
				if e, ok := ctx.classify(fe.obj, true); ok {
					add(e, pos, fe.at, append([]string{target}, fe.via...))
				}
			}
		}
	}

	// Partition: free effects are stored for the enclosing unit, the rest
	// become the summary.
	var frees []effect
	kept := out[:0]
	for _, e := range out {
		if e.kind == kindFree {
			frees = append(frees, e)
		} else {
			kept = append(kept, e)
		}
	}
	c.freeWrites[n.ID] = frees
	return kept
}

// walkWrites invokes fn for every assignment target in the unit's body
// (assignments and delete "write", ++/-- "update"), with bare reporting
// whether the target is a plain identifier (a rebinding). Nested literals
// and go statements are their own units.
func walkWrites(n *callgraph.Node, fn func(lhs ast.Expr, bare bool, verb string)) {
	report := func(e ast.Expr, verb string) {
		_, bare := ast.Unparen(e).(*ast.Ident)
		fn(e, bare, verb)
	}
	ast.Inspect(n.Body, func(m ast.Node) bool {
		switch x := m.(type) {
		case *ast.FuncLit:
			if _, nested := n.LitIDs[x]; nested {
				return false
			}
		case *ast.GoStmt:
			return false
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				report(lhs, "writes")
			}
		case *ast.IncDecStmt:
			report(x.X, "updates")
		case *ast.CallExpr:
			if id, ok := x.Fun.(*ast.Ident); ok && id.Name == "delete" && len(x.Args) > 0 {
				fn(x.Args[0], false, "writes")
			}
		}
		return true
	})
}

// toSummary folds effects into the exportable summary, first witness
// wins (effects are collected in deterministic source order).
func (c *checker) toSummary(effs []effect) fnSummary {
	var s fnSummary
	for _, e := range effs {
		w := witness{At: e.at, Via: e.via}
		switch e.kind {
		case kindRecv:
			if s.Recv == nil {
				s.Recv = &w
			}
		case kindGlobal:
			if s.Globals == nil {
				s.Globals = map[string]witness{}
			}
			if _, ok := s.Globals[e.name]; !ok {
				s.Globals[e.name] = w
			}
		case kindParam:
			if s.Params == nil {
				s.Params = map[string]witness{}
			}
			k := strconv.Itoa(e.index)
			if _, ok := s.Params[k]; !ok {
				s.Params[k] = w
			}
		}
	}
	return s
}

func summariesEqual(a, b fnSummary) bool {
	if (a.Recv == nil) != (b.Recv == nil) {
		return false
	}
	if len(a.Globals) != len(b.Globals) || len(a.Params) != len(b.Params) {
		return false
	}
	for k := range a.Globals {
		if _, ok := b.Globals[k]; !ok {
			return false
		}
	}
	for k := range a.Params {
		if _, ok := b.Params[k]; !ok {
			return false
		}
	}
	return true
}

// pointerish reports whether writes through a value of type t are visible
// to the value's provider: pointers, maps, slices, channels, and
// interfaces (which may hold any of those).
func pointerish(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Slice, *types.Chan, *types.Interface:
		return true
	}
	return false
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// exprString renders a written-to expression for diagnostics, eliding
// index values.
func exprString(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprString(x.X) + "." + x.Sel.Name
	case *ast.IndexExpr:
		return exprString(x.X) + "[...]"
	case *ast.StarExpr:
		return "*" + exprString(x.X)
	case *ast.ParenExpr:
		return exprString(x.X)
	}
	return "expression"
}
