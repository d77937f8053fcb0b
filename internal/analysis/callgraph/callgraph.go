// Package callgraph builds a deterministic whole-repository call graph
// over the internal/analysis loader's go/types information, and runs
// bottom-up function-summary computations on it (summary.go). It is the
// interprocedural backbone of the lockorder, purityflow, and detflow
// analyzers (DESIGN.md §14): each package's graph is built while the
// driver analyzes that package, summaries are exported through the
// analysis.Facts sidecar machinery, and — because the driver loads
// packages in dependency order — a callee's summary always exists before
// any cross-package caller asks for it.
//
// # Node identity
//
// Functions are identified by stable, human-readable IDs that survive the
// trip through JSON facts:
//
//	nontree/internal/rc.Lump             package-level function
//	nontree/internal/obs.(Registry).Add  method (pointer and value receivers collapse)
//	nontree/internal/serve.(Server).handleRoute$1
//	                                     the first function literal inside handleRoute
//
// # Call resolution
//
// Static calls and method calls on concrete receivers resolve through the
// type-checker to exactly one target. Calls through an interface resolve
// conservatively to every in-repository type whose method-name set covers
// the interface — drawn from per-package method-set facts
// (cg.methods.<pkg>.<Type>), so implementers in already-analyzed packages
// are found across package boundaries. Function literals are tracked: a
// literal invoked at its definition site, or through a local variable it
// (or a method value / named function) was assigned to, resolves to the
// literal's node; a literal that merely escapes is recorded as an
// Implicit call at its definition site, so summary-based analyses still
// see its effects.
//
// # Soundness caveats (DESIGN.md §14)
//
//   - Interface resolution is name-based and limited to packages analyzed
//     so far: an implementation living in a package that *imports* the
//     call site's package is invisible (bottom-up ordering), and matching
//     by method-name-set can over-approximate. Both directions are
//     conservative for the may-analyses built on top.
//   - Function values flowing through fields, slices, channels, or
//     parameters are not tracked; such calls have no targets and
//     analyzers treat them as unknown (assumed effect-free), exactly the
//     alias blindness the -race sweeps backstop dynamically.
package callgraph

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"

	"nontree/internal/analysis"
)

// FuncID returns the stable cross-package identifier of a declared
// function or method. Generic instantiations collapse onto their origin.
func FuncID(fn *types.Func) string {
	fn = fn.Origin()
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		name := "?"
		if n, ok := t.(*types.Named); ok {
			name = n.Obj().Name()
		}
		return pkg + ".(" + name + ")." + fn.Name()
	}
	return pkg + "." + fn.Name()
}

// MethodSetFactPrefix keys the per-package method-set facts Build exports:
// cg.methods.<pkg-path>.<TypeName> → map[method name]function ID. The
// interface-call resolver scans these across every package analyzed so
// far.
const MethodSetFactPrefix = "cg.methods."

// Call is one call site (or implicit function-literal reference) inside a
// Node.
type Call struct {
	// Site is the *ast.CallExpr, or the *ast.FuncLit itself for an
	// implicit edge to an escaping literal.
	Site ast.Node
	// Targets are the resolved callee IDs, deterministic order. Empty
	// means the callee is unknown (untracked function value).
	Targets []string
	// Iface marks a call resolved conservatively through an interface.
	Iface bool
	// Implicit marks an edge to a function literal at its definition site
	// (the literal escapes; it may run at any time, on any goroutine).
	Implicit bool
	// Go marks a call (or literal) that is the operand of a go statement.
	Go bool
	// Defer marks a call that is the operand of a defer statement.
	Defer bool
}

// Node is one function unit: a declared function/method or a function
// literal.
type Node struct {
	// ID is the stable identifier (see FuncID; literals append $n).
	ID string
	// Decl is the declaration, nil for literals.
	Decl *ast.FuncDecl
	// Lit is the literal, nil for declarations.
	Lit *ast.FuncLit
	// Body is the unit's body; nil for bodyless declarations.
	Body *ast.BlockStmt
	// Calls lists the unit's call sites in source order, nested literals
	// excluded (they are their own nodes).
	Calls []Call
	// Resolutions maps each call expression in this unit to its targets,
	// for analyses that re-walk the body (e.g. flow-sensitive held-lock
	// tracking) and need per-site resolution.
	Resolutions map[*ast.CallExpr][]string
	// LitIDs maps each directly nested function literal to its node ID.
	LitIDs map[*ast.FuncLit]string
}

// Name returns a short human-readable name for diagnostics: the part of
// the ID after the package path.
func (n *Node) Name() string {
	if i := strings.LastIndex(n.ID, "/"); i >= 0 {
		if j := strings.Index(n.ID[i:], "."); j >= 0 {
			return n.ID[i+j+1:]
		}
	}
	if j := strings.Index(n.ID, "."); j >= 0 {
		return n.ID[j+1:]
	}
	return n.ID
}

// Graph is one package's call graph. Node order is deterministic (file
// order, then source order; literals directly after their parent).
type Graph struct {
	PkgPath string
	Nodes   []*Node
	byID    map[string]*Node
}

// Lookup returns the in-package node with the given ID, or nil.
func (g *Graph) Lookup(id string) *Node { return g.byID[id] }

// Build constructs the call graph of the package under analysis and
// exports its method-set facts (MethodSetFactPrefix keys) into
// pass.Facts, making this package's types visible to interface-call
// resolution in every dependent package.
func Build(pass *analysis.Pass) *Graph {
	g := &Graph{PkgPath: pass.Pkg.Path(), byID: map[string]*Node{}}
	b := &gbuilder{pass: pass, g: g}
	b.exportMethodSets()
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			id := b.declID(fd)
			b.addUnit(id, fd, nil, fd.Body)
		}
	}
	return g
}

type gbuilder struct {
	pass *analysis.Pass
	g    *Graph
}

// declID derives the node ID of a declaration from its type object,
// falling back to a syntactic ID when type info is missing (malformed
// source is the loader's problem, not ours).
func (b *gbuilder) declID(fd *ast.FuncDecl) string {
	if obj, ok := b.pass.Info.Defs[fd.Name].(*types.Func); ok && obj != nil {
		return FuncID(obj)
	}
	return b.g.PkgPath + "." + fd.Name.Name
}

// addUnit registers one function unit and recursively registers its
// nested literals, then resolves its calls.
func (b *gbuilder) addUnit(id string, decl *ast.FuncDecl, lit *ast.FuncLit, body *ast.BlockStmt) *Node {
	n := &Node{
		ID:          id,
		Decl:        decl,
		Lit:         lit,
		Body:        body,
		Resolutions: map[*ast.CallExpr][]string{},
		LitIDs:      map[*ast.FuncLit]string{},
	}
	b.g.Nodes = append(b.g.Nodes, n)
	b.g.byID[id] = n
	if body == nil {
		return n
	}

	// Register directly nested literals first (skipping their interiors),
	// so value tracking and call resolution can target them.
	litSeq := 0
	var lits []*ast.FuncLit
	forEachDirect(body, func(node ast.Node) bool {
		if fl, ok := node.(*ast.FuncLit); ok {
			litSeq++
			n.LitIDs[fl] = id + "$" + strconv.Itoa(litSeq)
			lits = append(lits, fl)
			return false
		}
		return true
	})

	funcVars := b.trackFuncValues(n, body)
	b.resolveCalls(n, body, funcVars)

	for _, fl := range lits {
		b.addUnit(n.LitIDs[fl], nil, fl, fl.Body)
	}
	return n
}

// forEachDirect walks node, calling fn for every descendant; returning
// false from fn prunes that subtree (used to keep literal interiors out
// of their parent unit).
func forEachDirect(node ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(node, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if n == node {
			return true
		}
		return fn(n)
	})
}

// trackFuncValues collects, per local variable, the function values
// assigned to it anywhere in the unit: function literals, named
// functions, and method values. Flow-insensitive and conservative.
func (b *gbuilder) trackFuncValues(n *Node, body *ast.BlockStmt) map[types.Object][]string {
	out := map[types.Object][]string{}
	record := func(lhs ast.Expr, rhs ast.Expr) {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		obj := b.pass.Info.Defs[id]
		if obj == nil {
			obj = b.pass.Info.Uses[id]
		}
		if obj == nil {
			return
		}
		for _, t := range b.valueTargets(n, rhs) {
			out[obj] = append(out[obj], t)
		}
	}
	forEachDirect(body, func(node ast.Node) bool {
		switch s := node.(type) {
		case *ast.FuncLit:
			// Assignments inside a nested literal bind that literal's view
			// of the variable; the literal's own unit tracks them.
			if _, nested := n.LitIDs[s]; nested {
				return false
			}
		case *ast.AssignStmt:
			if len(s.Lhs) == len(s.Rhs) {
				for i := range s.Lhs {
					record(s.Lhs[i], s.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(s.Names) == len(s.Values) {
				for i := range s.Names {
					record(s.Names[i], s.Values[i])
				}
			}
		}
		return true
	})
	for obj, ids := range out {
		sort.Strings(ids)
		out[obj] = dedupSorted(ids)
	}
	return out
}

// valueTargets resolves an expression used as a function value to node
// IDs: a nested literal, a named function, or a method value.
func (b *gbuilder) valueTargets(n *Node, e ast.Expr) []string {
	switch x := ast.Unparen(e).(type) {
	case *ast.FuncLit:
		if id, ok := n.LitIDs[x]; ok {
			return []string{id}
		}
	case *ast.Ident:
		if fn, ok := b.pass.Info.Uses[x].(*types.Func); ok {
			return []string{FuncID(fn)}
		}
	case *ast.SelectorExpr:
		if sel := b.pass.Info.Selections[x]; sel != nil {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return []string{FuncID(fn)}
			}
		} else if fn, ok := b.pass.Info.Uses[x.Sel].(*types.Func); ok {
			return []string{FuncID(fn)}
		}
	}
	return nil
}

// resolveCalls records every call site of the unit (and implicit edges to
// escaping literals) with resolved targets.
func (b *gbuilder) resolveCalls(n *Node, body *ast.BlockStmt, funcVars map[types.Object][]string) {
	// Literals invoked or assigned are "used"; any other literal is an
	// implicit edge at its definition site.
	usedLits := map[*ast.FuncLit]bool{}

	type site struct {
		call  *ast.CallExpr
		goSt  bool
		defSt bool
	}
	var sites []site
	var implicit []*ast.FuncLit

	var inGo, inDefer int
	var walk func(node ast.Node)
	walk = func(node ast.Node) {
		switch s := node.(type) {
		case nil:
			return
		case *ast.GoStmt:
			inGo++
			walk(s.Call)
			inGo--
			return
		case *ast.DeferStmt:
			inDefer++
			walk(s.Call)
			inDefer--
			return
		case *ast.CallExpr:
			sites = append(sites, site{call: s, goSt: inGo > 0, defSt: inDefer > 0})
			if fl, ok := ast.Unparen(s.Fun).(*ast.FuncLit); ok {
				if _, nested := n.LitIDs[fl]; nested {
					usedLits[fl] = true
				}
			}
		case *ast.FuncLit:
			if _, nested := n.LitIDs[s]; nested {
				if !usedLits[s] {
					implicit = append(implicit, s)
				}
				return // interior belongs to the literal's own unit
			}
		}
		// Generic recursion over children.
		cont := true
		ast.Inspect(node, func(m ast.Node) bool {
			if m == node {
				return cont
			}
			if m == nil {
				return false
			}
			walk(m)
			return false
		})
	}
	for _, stmt := range body.List {
		walk(stmt)
	}

	for _, s := range sites {
		targets, iface := b.callTargets(n, s.call, funcVars)
		n.Resolutions[s.call] = targets
		n.Calls = append(n.Calls, Call{
			Site: s.call, Targets: targets, Iface: iface,
			Go: s.goSt, Defer: s.defSt,
		})
	}
	for _, fl := range implicit {
		n.Calls = append(n.Calls, Call{
			Site: fl, Targets: []string{n.LitIDs[fl]}, Implicit: true,
		})
	}
}

// callTargets resolves one call expression.
func (b *gbuilder) callTargets(n *Node, call *ast.CallExpr, funcVars map[types.Object][]string) (targets []string, iface bool) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.FuncLit:
		if id, ok := n.LitIDs[fun]; ok {
			return []string{id}, false
		}
	case *ast.Ident:
		switch obj := b.pass.Info.Uses[fun].(type) {
		case *types.Func:
			return []string{FuncID(obj)}, false
		case *types.Var:
			if ids := funcVars[obj]; len(ids) > 0 {
				return ids, false
			}
		}
	case *ast.SelectorExpr:
		if sel := b.pass.Info.Selections[fun]; sel != nil {
			fn, ok := sel.Obj().(*types.Func)
			if !ok {
				// Func-typed struct field: untracked value.
				return nil, false
			}
			if types.IsInterface(sel.Recv()) {
				return b.ifaceTargets(sel.Recv(), fn.Name()), true
			}
			return []string{FuncID(fn)}, false
		}
		// Package-qualified call pkg.F (no Selection entry).
		if fn, ok := b.pass.Info.Uses[fun.Sel].(*types.Func); ok {
			return []string{FuncID(fn)}, false
		}
	}
	return nil, false
}

// ifaceTargets resolves an interface method call to every known type
// whose method-name set covers the interface, using the method-set facts
// of this and every previously analyzed package.
func (b *gbuilder) ifaceTargets(recv types.Type, method string) []string {
	it, ok := recv.Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	need := make([]string, 0, it.NumMethods())
	for i := 0; i < it.NumMethods(); i++ {
		need = append(need, it.Method(i).Name())
	}
	var out []string
	for _, key := range b.pass.Facts.KeysWithPrefix(MethodSetFactPrefix) {
		var ms map[string]string
		if !b.pass.Facts.Import(key, &ms) {
			continue
		}
		covers := true
		for _, name := range need {
			if _, ok := ms[name]; !ok {
				covers = false
				break
			}
		}
		if covers {
			if id, ok := ms[method]; ok {
				out = append(out, id)
			}
		}
	}
	sort.Strings(out)
	return dedupSorted(out)
}

// exportMethodSets publishes this package's named types' full method sets
// (including promoted methods, via *T) for interface resolution in
// dependent packages.
func (b *gbuilder) exportMethodSets() {
	scope := b.pass.Pkg.Scope()
	for _, name := range scope.Names() { // Names() is sorted
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		if types.IsInterface(named) {
			continue
		}
		ms := map[string]string{}
		mset := types.NewMethodSet(types.NewPointer(named))
		for i := 0; i < mset.Len(); i++ {
			if fn, ok := mset.At(i).Obj().(*types.Func); ok {
				ms[fn.Name()] = FuncID(fn)
			}
		}
		if len(ms) == 0 {
			continue
		}
		key := MethodSetFactPrefix + b.g.PkgPath + "." + name
		_ = b.pass.Facts.Export(b.g.PkgPath, key, ms)
	}
}

func dedupSorted(s []string) []string {
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// PosString renders a token position as "file:line" with the directory
// stripped — stable across machines, suitable for JSON facts and
// diagnostic messages.
func PosString(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	name := p.Filename
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	return name + ":" + strconv.Itoa(p.Line)
}
