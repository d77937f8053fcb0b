// Package detflow is the interprocedural escalation of detordering and
// nondetsource: a taint analysis that follows nondeterminism — map
// iteration order, the wall clock, math/rand's global source — through
// return values and out-parameters across function boundaries, into the
// deterministic-result surface of the algorithm packages.
//
// # Model
//
// Each function gets a flow-sensitive (cfg.Forward) taint state over its
// local variables. Taint enters at sources (ranging over a map taints the
// iteration variables; time.Now/Since/Until and math/rand global-source
// calls taint their results), propagates through assignments, arithmetic,
// append, conversions, and — the interprocedural part — through call
// sites, using bottom-up summaries (callgraph SCC fixpoint, exported as
// facts "df.fn.<ID>") that record which results and out-parameters carry
// which taint kinds and which results merely pass parameter taint
// through. Sorting sanitizes: sort.* and slices.Sort* drop map-order
// taint from their argument, the repository's sanctioned determinism
// idiom (DESIGN.md §6).
//
// Diagnostics fire where nondeterminism crosses the contract boundary: an
// exported function of an algorithm package (core, ert, steiner, pdtree,
// graph, expt, and the root package) returning — or writing through an
// out-parameter — a value whose taint arrived through a callee. Taint
// born and returned in the same function body is detordering's and
// nondetsource's territory and is not re-reported.
//
// # Soundness caveats (DESIGN.md §14)
//
// Taint through struct fields, channels, and global variables is not
// tracked (locals and parameters only); methods on *rand.Rand are clean
// by design — seeded streams are the sanctioned reproducible randomness.
package detflow

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"nontree/internal/analysis"
	"nontree/internal/analysis/callgraph"
	"nontree/internal/analysis/cfg"
)

var Analyzer = &analysis.Analyzer{
	Name: "detflow",
	Doc:  "nondeterminism (map order, clock, math/rand) must not flow through call chains into exported algorithm results",
	Run:  run,
	// No Scope: summaries are needed wherever algorithm code calls.
}

// Taint kinds, a bitmask.
const (
	kindMapOrder = 1 << iota
	kindClock
	kindRand
)

func kindNames(kinds int) string {
	var out []string
	if kinds&kindMapOrder != 0 {
		out = append(out, "map iteration order")
	}
	if kinds&kindClock != 0 {
		out = append(out, "the wall clock")
	}
	if kinds&kindRand != 0 {
		out = append(out, "math/rand's global source")
	}
	return strings.Join(out, " and ")
}

// sinkScope lists the packages whose exported functions form the
// deterministic-result surface. Fixture packages (paths outside the
// nontree module) are always in scope so analysistest exercises sinks
// directly.
var sinkScope = map[string]bool{
	"nontree":                  true,
	"nontree/internal/core":    true,
	"nontree/internal/ert":     true,
	"nontree/internal/steiner": true,
	"nontree/internal/pdtree":  true,
	"nontree/internal/graph":   true,
	"nontree/internal/expt":    true,
}

func inSinkScope(path string) bool {
	if !strings.HasPrefix(path, "nontree") {
		return true
	}
	return sinkScope[path]
}

// factPrefix keys the exported per-function summaries.
const factPrefix = "df.fn."

// resultTaint describes one (possibly) tainted result slot.
type resultTaint struct {
	Index int `json:"index"`
	// Kinds are taint kinds the result always carries.
	Kinds int `json:"kinds,omitempty"`
	// FromParams is a bitmask of parameter indexes whose taint flows into
	// this result (pass-through laundering).
	FromParams uint64 `json:"fromParams,omitempty"`
	// At/Via witness the Kinds taint: ultimate source site and the call
	// chain below this function.
	At  string   `json:"at,omitempty"`
	Via []string `json:"via,omitempty"`
}

// paramTaint describes tainted data written through a pointer-like
// parameter.
type paramTaint struct {
	Index int      `json:"index"`
	Kinds int      `json:"kinds"`
	At    string   `json:"at,omitempty"`
	Via   []string `json:"via,omitempty"`
}

type fnSummary struct {
	Results []resultTaint `json:"results,omitempty"`
	Params  []paramTaint  `json:"params,omitempty"`
}

func run(pass *analysis.Pass) error {
	g := callgraph.Build(pass)
	c := &checker{pass: pass}

	sums := callgraph.SummarizeTyped(g, callgraph.Summarizer[fnSummary]{
		Bottom: func(n *callgraph.Node) fnSummary { return fnSummary{} },
		Transfer: func(n *callgraph.Node, callee func(string) (fnSummary, bool)) fnSummary {
			return c.analyze(n, callee, nil)
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
		if len(s.Results) == 0 && len(s.Params) == 0 {
			continue
		}
		if err := pass.Facts.Export(pass.Pkg.Path(), factPrefix+n.ID, s); err != nil {
			return err
		}
	}

	if !inSinkScope(pass.Pkg.Path()) {
		return nil
	}
	lookup := func(id string) (fnSummary, bool) {
		if s, ok := sums[id]; ok {
			return s, true
		}
		var s fnSummary
		ok := pass.Facts.Import(factPrefix+id, &s)
		return s, ok
	}
	for _, n := range g.Nodes {
		if n.Decl == nil || !n.Decl.Name.IsExported() {
			continue
		}
		c.analyze(n, lookup, &reporter{pass: pass, fn: n.Decl.Name.Name})
	}
	return nil
}

// reporter emits sink diagnostics during a reporting re-analysis.
type reporter struct {
	pass *analysis.Pass
	fn   string
	seen map[string]bool
}

func (r *reporter) report(pos token.Pos, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if r.seen == nil {
		r.seen = map[string]bool{}
	}
	key := fmt.Sprintf("%d|%s", pos, msg)
	if r.seen[key] {
		return
	}
	r.seen[key] = true
	r.pass.Report(pos, msg)
}

type checker struct {
	pass *analysis.Pass
}

// witness localizes one taint kind for diagnostics.
type witness struct {
	at  string
	via []string
}

// varTaint is the per-variable lattice value: taint kinds, the parameter
// bits the value derives from, and per-kind witnesses (first wins;
// ignored by Equal so the fixpoint still terminates).
type varTaint struct {
	kinds  int
	params uint64
	wit    map[int]witness
}

func (t varTaint) witFor(kind int) witness {
	if w, ok := t.wit[kind]; ok {
		return w
	}
	return witness{}
}

func mergeTaint(a, b varTaint) varTaint {
	if b.kinds == 0 && b.params == 0 {
		return a
	}
	if a.kinds == 0 && a.params == 0 {
		return b
	}
	out := varTaint{kinds: a.kinds | b.kinds, params: a.params | b.params}
	out.wit = map[int]witness{}
	for k, w := range a.wit {
		out.wit[k] = w
	}
	for k, w := range b.wit {
		if _, ok := out.wit[k]; !ok {
			out.wit[k] = w
		}
	}
	return out
}

func taintWith(kind int, w witness) varTaint {
	return varTaint{kinds: kind, wit: map[int]witness{kind: w}}
}

type taintState map[types.Object]varTaint

func (s taintState) clone() taintState {
	c := make(taintState, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

// unit is the per-function analysis context.
type unit struct {
	c       *checker
	n       *callgraph.Node
	callee  func(string) (fnSummary, bool)
	rep     *reporter
	params  map[types.Object]int
	ptrOK   map[types.Object]bool
	results []types.Object // named result variables, nil entries for unnamed
	// rangeBind maps the Key/Value ident nodes the cfg places at the top
	// of a range body to their binding (the range expression and whether
	// it ranges over a map).
	rangeBind map[ast.Node]rangeInfo
	// out accumulates the summary during one analysis pass.
	sum fnSummary
}

type rangeInfo struct {
	x     ast.Expr
	isMap bool
	pos   token.Pos
}

// analyze runs the taint dataflow over one node, returning its summary.
// When rep is non-nil, sink diagnostics are emitted too.
func (c *checker) analyze(n *callgraph.Node, callee func(string) (fnSummary, bool), rep *reporter) fnSummary {
	if n.Body == nil {
		return fnSummary{}
	}
	u := &unit{
		c: c, n: n, callee: callee, rep: rep,
		params:    map[types.Object]int{},
		ptrOK:     map[types.Object]bool{},
		rangeBind: map[ast.Node]rangeInfo{},
	}
	var ftype *ast.FuncType
	if n.Decl != nil {
		ftype = n.Decl.Type
	} else {
		ftype = n.Lit.Type
	}
	if ftype.Params != nil {
		idx := 0
		for _, field := range ftype.Params.List {
			if len(field.Names) == 0 {
				idx++
				continue
			}
			for _, name := range field.Names {
				if obj := c.pass.Info.Defs[name]; obj != nil {
					u.params[obj] = idx
					if pointerish(obj.Type()) {
						u.ptrOK[obj] = true
					}
				}
				idx++
			}
		}
	}
	if ftype.Results != nil {
		for _, field := range ftype.Results.List {
			if len(field.Names) == 0 {
				u.results = append(u.results, nil)
				continue
			}
			for _, name := range field.Names {
				u.results = append(u.results, c.pass.Info.Defs[name])
			}
		}
	}
	// Pre-scan range statements: the cfg surfaces Key/Value as bare
	// expressions at the body top; bind them back to their range.
	ast.Inspect(n.Body, func(m ast.Node) bool {
		switch x := m.(type) {
		case *ast.FuncLit:
			if _, nested := n.LitIDs[x]; nested {
				return false
			}
		case *ast.RangeStmt:
			t := c.pass.Info.TypeOf(x.X)
			isMap := false
			if t != nil {
				_, isMap = t.Underlying().(*types.Map)
			}
			info := rangeInfo{x: x.X, isMap: isMap, pos: x.Pos()}
			if x.Key != nil {
				u.rangeBind[x.Key] = info
			}
			if x.Value != nil {
				u.rangeBind[x.Value] = info
			}
		}
		return true
	})

	g := cfg.New(n.Body)
	ins := cfg.Forward(g, cfg.Flow{
		Entry: func() any {
			st := taintState{}
			for obj, i := range u.params {
				if i < 64 {
					st[obj] = varTaint{params: 1 << i}
				}
			}
			return st
		},
		Transfer: func(b *cfg.Block, in any) any {
			state := in.(taintState).clone()
			for _, node := range b.Nodes {
				u.transfer(node, state, false)
			}
			return state
		},
		Meet: func(a, b any) any {
			sa, sb := a.(taintState), b.(taintState)
			out := make(taintState, len(sa)+len(sb))
			for k, v := range sa {
				out[k] = v
			}
			for k, v := range sb {
				out[k] = mergeTaint(out[k], v)
			}
			return out
		},
		Equal: func(a, b any) bool {
			sa, sb := a.(taintState), b.(taintState)
			if len(sa) != len(sb) {
				return false
			}
			for k, va := range sa {
				vb, ok := sb[k]
				if !ok || va.kinds != vb.kinds || va.params != vb.params {
					return false
				}
			}
			return true
		},
	})
	// Final pass: replay transfers, recording summary entries (returns,
	// out-param writes) and emitting diagnostics.
	for _, b := range g.Blocks {
		if ins[b.Index] == nil {
			continue // unreachable
		}
		state := ins[b.Index].(taintState).clone()
		for _, node := range b.Nodes {
			u.transfer(node, state, true)
		}
	}
	return u.sum
}

// transfer applies one CFG node to the taint state. When record is set,
// return statements and out-parameter writes are folded into the summary
// and reported at sinks.
func (u *unit) transfer(node ast.Node, state taintState, record bool) {
	// Call side effects (sanitizers, out-parameter taint) apply wherever
	// a call appears in the node.
	u.applyCallEffects(node, state, record)

	switch s := node.(type) {
	case *ast.AssignStmt:
		u.assign(s, state, record)
	case *ast.ReturnStmt:
		if record {
			u.recordReturn(s, state)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if i < len(vs.Values) {
						if obj := u.c.pass.Info.Defs[name]; obj != nil {
							state[obj] = u.taintOf(vs.Values[i], state)
						}
					}
				}
			}
		}
	default:
		if info, ok := u.rangeBind[node]; ok {
			// Key/Value binding at the top of a range body.
			t := u.taintOf(info.x, state)
			if info.isMap {
				w := witness{at: callgraph.PosString(u.c.pass.Fset, info.pos)}
				t = mergeTaint(t, taintWith(kindMapOrder, w))
			}
			if id, ok := node.(*ast.Ident); ok {
				obj := u.c.pass.Info.Defs[id]
				if obj == nil {
					obj = u.c.pass.Info.Uses[id]
				}
				if obj != nil {
					state[obj] = mergeTaint(state[obj], t)
				}
			}
		}
	}
}

// assign propagates taint through one assignment statement.
func (u *unit) assign(s *ast.AssignStmt, state taintState, record bool) {
	var rhs []varTaint
	if len(s.Lhs) > 1 && len(s.Rhs) == 1 {
		// Multi-value: a call, type assertion, or map read.
		if call, ok := ast.Unparen(s.Rhs[0]).(*ast.CallExpr); ok {
			rhs = u.callResultTaints(call, state, len(s.Lhs))
		} else {
			t := u.taintOf(s.Rhs[0], state)
			rhs = make([]varTaint, len(s.Lhs))
			for i := range rhs {
				rhs[i] = t
			}
		}
	} else {
		for _, r := range s.Rhs {
			rhs = append(rhs, u.taintOf(r, state))
		}
	}
	for i, lhs := range s.Lhs {
		if i >= len(rhs) {
			break
		}
		t := rhs[i]
		if s.Tok != token.ASSIGN && s.Tok != token.DEFINE {
			// Compound assignment (+=, etc.) keeps the old taint too.
			t = mergeTaint(t, u.taintOf(lhs, state))
		}
		u.writeTo(lhs, t, state, record)
	}
}

// writeTo assigns taint to an lvalue: strong update for a bare local
// identifier, weak (merging) update through selectors/indexes, and —
// when the root is a pointer-like parameter — an out-parameter summary
// entry.
func (u *unit) writeTo(lhs ast.Expr, t varTaint, state taintState, record bool) {
	base := ast.Unparen(lhs)
	if id, ok := base.(*ast.Ident); ok {
		if id.Name == "_" {
			return
		}
		obj := u.c.pass.Info.Defs[id]
		if obj == nil {
			obj = u.c.pass.Info.Uses[id]
		}
		if obj != nil {
			state[obj] = t
		}
		return
	}
	root := analysis.RootIdent(base)
	if root == nil {
		return
	}
	obj := u.c.pass.Info.Uses[root]
	if obj == nil {
		obj = u.c.pass.Info.Defs[root]
	}
	if obj == nil {
		return
	}
	state[obj] = mergeTaint(state[obj], t)
	if record && t.kinds != 0 && u.ptrOK[obj] {
		if i, ok := u.params[obj]; ok {
			u.addParamTaint(i, t, lhs.Pos())
		}
	}
}

// addParamTaint folds an out-parameter write into the summary and, at a
// sink, reports taint that arrived through a callee.
func (u *unit) addParamTaint(index int, t varTaint, pos token.Pos) {
	for _, existing := range u.sum.Params {
		if existing.Index == index && existing.Kinds&t.kinds == t.kinds {
			return
		}
	}
	w := t.witFor(lowestKind(t.kinds))
	u.sum.Params = append(u.sum.Params, paramTaint{
		Index: index, Kinds: t.kinds, At: w.at, Via: w.via,
	})
	if u.rep != nil && len(w.via) > 0 {
		u.rep.report(pos,
			"%s writes data tainted by %s through parameter %d (via %s, source at %s): "+
				"out-parameters of exported algorithm functions must be deterministic (DESIGN.md §14)",
			u.rep.fn, kindNames(t.kinds), index, strings.Join(w.via, " -> "), w.at)
	}
}

// recordReturn folds one return statement into the Results summary and
// reports call-derived taint at sinks.
func (u *unit) recordReturn(s *ast.ReturnStmt, state taintState) {
	var taints []varTaint
	if len(s.Results) == 0 {
		// Bare return: named results carry the state.
		for _, obj := range u.results {
			if obj == nil {
				taints = append(taints, varTaint{})
				continue
			}
			taints = append(taints, state[obj])
		}
	} else if len(s.Results) == 1 {
		if call, ok := ast.Unparen(s.Results[0]).(*ast.CallExpr); ok && len(u.results) > 1 {
			taints = u.callResultTaints(call, state, len(u.results))
		} else {
			taints = []varTaint{u.taintOf(s.Results[0], state)}
		}
	} else {
		for _, r := range s.Results {
			taints = append(taints, u.taintOf(r, state))
		}
	}
	for i, t := range taints {
		if t.kinds == 0 && t.params == 0 {
			continue
		}
		u.addResultTaint(i, t)
		if u.rep != nil && t.kinds != 0 {
			w := t.witFor(lowestKind(t.kinds))
			if len(w.via) > 0 {
				pos := s.Pos()
				if i < len(s.Results) {
					pos = s.Results[i].Pos()
				}
				u.rep.report(pos,
					"%s returns a value tainted by %s (via %s, source at %s): "+
						"exported algorithm results must be deterministic (DESIGN.md §14)",
					u.rep.fn, kindNames(t.kinds), strings.Join(w.via, " -> "), w.at)
			}
		}
	}
}

func (u *unit) addResultTaint(index int, t varTaint) {
	for j, existing := range u.sum.Results {
		if existing.Index == index {
			u.sum.Results[j].Kinds |= t.kinds
			u.sum.Results[j].FromParams |= t.params
			return
		}
	}
	w := t.witFor(lowestKind(t.kinds))
	u.sum.Results = append(u.sum.Results, resultTaint{
		Index: index, Kinds: t.kinds, FromParams: t.params, At: w.at, Via: w.via,
	})
}

// taintOf evaluates the taint of an expression under state.
func (u *unit) taintOf(e ast.Expr, state taintState) varTaint {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := u.c.pass.Info.Uses[x]
		if obj == nil {
			obj = u.c.pass.Info.Defs[x]
		}
		if obj == nil {
			return varTaint{}
		}
		return state[obj]
	case *ast.BasicLit, *ast.FuncLit:
		return varTaint{}
	case *ast.BinaryExpr:
		return mergeTaint(u.taintOf(x.X, state), u.taintOf(x.Y, state))
	case *ast.UnaryExpr:
		return u.taintOf(x.X, state)
	case *ast.StarExpr:
		return u.taintOf(x.X, state)
	case *ast.IndexExpr:
		return mergeTaint(u.taintOf(x.X, state), u.taintOf(x.Index, state))
	case *ast.SliceExpr:
		return u.taintOf(x.X, state)
	case *ast.SelectorExpr:
		if root := analysis.RootIdent(x); root != nil {
			obj := u.c.pass.Info.Uses[root]
			if obj == nil {
				obj = u.c.pass.Info.Defs[root]
			}
			if obj != nil {
				return state[obj]
			}
		}
		return varTaint{}
	case *ast.TypeAssertExpr:
		return u.taintOf(x.X, state)
	case *ast.CompositeLit:
		var t varTaint
		for _, elt := range x.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				t = mergeTaint(t, u.taintOf(kv.Value, state))
			} else {
				t = mergeTaint(t, u.taintOf(elt, state))
			}
		}
		return t
	case *ast.CallExpr:
		res := u.callResultTaints(x, state, 1)
		if len(res) > 0 {
			return res[0]
		}
		return varTaint{}
	}
	return varTaint{}
}

// callResultTaints evaluates a call's result taints (nres slots).
func (u *unit) callResultTaints(call *ast.CallExpr, state taintState, nres int) []varTaint {
	out := make([]varTaint, nres)
	site := callgraph.PosString(u.c.pass.Fset, call.Pos())

	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := u.c.pass.Info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "append":
				var t varTaint
				for _, a := range call.Args {
					t = mergeTaint(t, u.taintOf(a, state))
				}
				out[0] = t
			case "len", "cap", "make", "new", "min", "max":
				// Deterministic regardless of argument taint.
			default:
				var t varTaint
				for _, a := range call.Args {
					t = mergeTaint(t, u.taintOf(a, state))
				}
				out[0] = t
			}
			return out
		}
	}

	// Known nondeterminism sources.
	info := u.c.pass.Info
	if analysis.IsPkgCall(info, call, "time", "Now", "Since", "Until") {
		out[0] = taintWith(kindClock, witness{at: site})
		return out
	}
	if isGlobalRandCall(info, call) {
		out[0] = taintWith(kindRand, witness{at: site})
		return out
	}

	// Sorted-copy helpers sanitize map order from their result.
	if analysis.IsPkgCall(info, call, "slices", "Sorted", "SortedFunc", "SortedStableFunc") {
		var t varTaint
		for _, a := range call.Args {
			t = mergeTaint(t, u.taintOf(a, state))
		}
		t.kinds &^= kindMapOrder
		out[0] = t
		return out
	}

	// Resolved targets: use summaries.
	if targets := u.n.Resolutions[call]; len(targets) > 0 {
		resolved := false
		for _, target := range targets {
			cs, ok := u.callee(target)
			if !ok {
				continue
			}
			resolved = true
			for _, rt := range cs.Results {
				if rt.Index >= nres {
					continue
				}
				t := varTaint{}
				if rt.Kinds != 0 {
					w := witness{at: rt.At, via: append([]string{target}, rt.Via...)}
					for _, k := range []int{kindMapOrder, kindClock, kindRand} {
						if rt.Kinds&k != 0 {
							t = mergeTaint(t, taintWith(k, w))
						}
					}
				}
				for j := 0; j < 64 && j < len(call.Args); j++ {
					if rt.FromParams&(1<<j) == 0 {
						continue
					}
					at := u.taintOf(call.Args[j], state)
					if at.kinds == 0 && at.params == 0 {
						continue
					}
					// Pass-through: extend the witness chain with the
					// laundering callee.
					passed := at
					passed.wit = map[int]witness{}
					for k, w := range at.wit {
						passed.wit[k] = witness{at: w.at, via: append(append([]string{}, w.via...), target)}
					}
					t = mergeTaint(t, passed)
				}
				out[rt.Index] = mergeTaint(out[rt.Index], t)
			}
		}
		if resolved {
			return out
		}
	}

	// Unresolved call: conservative pass-through of argument (and method
	// receiver) taint into every result.
	var t varTaint
	for _, a := range call.Args {
		t = mergeTaint(t, u.taintOf(a, state))
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if u.c.pass.Info.Selections[sel] != nil {
			t = mergeTaint(t, u.taintOf(sel.X, state))
		}
	}
	for i := range out {
		out[i] = t
	}
	return out
}

// applyCallEffects applies, for every call nested in node, the sanitizer
// and out-parameter effects that mutate the state rather than produce
// results.
func (u *unit) applyCallEffects(node ast.Node, state taintState, record bool) {
	ast.Inspect(node, func(m ast.Node) bool {
		switch x := m.(type) {
		case *ast.FuncLit:
			if _, nested := u.n.LitIDs[x]; nested {
				return false
			}
		case *ast.GoStmt:
			return false
		case *ast.CallExpr:
			u.applyOneCall(x, state, record)
		}
		return true
	})
}

func (u *unit) applyOneCall(call *ast.CallExpr, state taintState, record bool) {
	info := u.c.pass.Info
	// In-place sorts sanitize map-order taint on their argument.
	if analysis.IsPkgCall(info, call, "sort",
		"Ints", "Float64s", "Strings", "Sort", "Stable", "Slice", "SliceStable") ||
		analysis.IsPkgCall(info, call, "slices", "Sort", "SortFunc", "SortStableFunc") {
		if len(call.Args) > 0 {
			if root := analysis.RootIdent(call.Args[0]); root != nil {
				obj := info.Uses[root]
				if obj == nil {
					obj = info.Defs[root]
				}
				if obj != nil {
					t := state[obj]
					t.kinds &^= kindMapOrder
					state[obj] = t
				}
			}
		}
		return
	}
	// Out-parameter taint from resolved callees.
	for _, target := range u.n.Resolutions[call] {
		cs, ok := u.callee(target)
		if !ok {
			continue
		}
		for _, pt := range cs.Params {
			if pt.Index >= len(call.Args) {
				continue
			}
			root := analysis.RootIdent(call.Args[pt.Index])
			if root == nil {
				continue
			}
			obj := info.Uses[root]
			if obj == nil {
				obj = info.Defs[root]
			}
			if obj == nil {
				continue
			}
			w := witness{at: pt.At, via: append([]string{target}, pt.Via...)}
			var t varTaint
			for _, k := range []int{kindMapOrder, kindClock, kindRand} {
				if pt.Kinds&k != 0 {
					t = mergeTaint(t, taintWith(k, w))
				}
			}
			state[obj] = mergeTaint(state[obj], t)
			if record && u.ptrOK[obj] {
				if i, ok := u.params[obj]; ok {
					u.addParamTaint(i, t, call.Pos())
				}
			}
		}
	}
}

// isGlobalRandCall reports whether call uses math/rand's package-level
// global source (excluding the pure constructors New/NewSource/NewZipf —
// and methods on *rand.Rand, which are seeded, reproducible streams).
func isGlobalRandCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return false
	}
	path := pn.Imported().Path()
	if path != "math/rand" && path != "math/rand/v2" {
		return false
	}
	switch sel.Sel.Name {
	case "New", "NewSource", "NewZipf", "NewPCG", "NewChaCha8":
		return false
	}
	return true
}

func summariesEqual(a, b fnSummary) bool {
	if len(a.Results) != len(b.Results) || len(a.Params) != len(b.Params) {
		return false
	}
	am, bm := map[int][2]uint64{}, map[int][2]uint64{}
	for _, r := range a.Results {
		am[r.Index] = [2]uint64{uint64(r.Kinds), r.FromParams}
	}
	for _, r := range b.Results {
		bm[r.Index] = [2]uint64{uint64(r.Kinds), r.FromParams}
	}
	for k, v := range am {
		if bm[k] != v {
			return false
		}
	}
	ap, bp := map[int]int{}, map[int]int{}
	for _, p := range a.Params {
		ap[p.Index] |= p.Kinds
	}
	for _, p := range b.Params {
		bp[p.Index] |= p.Kinds
	}
	for k, v := range ap {
		if bp[k] != v {
			return false
		}
	}
	return true
}

func pointerish(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Slice, *types.Chan, *types.Interface:
		return true
	}
	return false
}

func lowestKind(kinds int) int {
	for _, k := range []int{kindMapOrder, kindClock, kindRand} {
		if kinds&k != 0 {
			return k
		}
	}
	return 0
}
