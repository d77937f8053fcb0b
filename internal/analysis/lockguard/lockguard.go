// Package lockguard verifies mutex discipline declared by field
// annotations: every access to a struct field carrying
//
//	//nontree:guardedby <mu>
//
// (where <mu> names a sibling sync.Mutex or sync.RWMutex field) must be
// flow-dominated by a Lock of that mutex through the same root variable —
// reads require at least a read lock, writes (assignment, inc/dec,
// delete, address-taking) require the write lock. The check is a forward
// dataflow analysis over the internal/analysis/cfg graph: Lock/RLock
// generate the held fact, Unlock/RUnlock kill it, and control-flow merges
// keep only what every incoming path holds.
//
// Scope and soundness notes:
//   - The analysis is intra-procedural and root-based: x.mu.Lock()
//     protects x.field accesses through the same x. Aliasing two roots to
//     one struct, or helpers documented "caller must hold mu", need a
//     justified //nontree:allow lockguard annotation.
//   - Function literals are separate analysis units entered with no locks
//     held: a literal that touches guarded state must lock (or carry an
//     annotation), because it may run on another goroutine.
//   - defer statements are ignored entirely: a deferred Unlock does not
//     kill the held fact (it runs at return), and deferred accesses are
//     not checked (their lock state is the return-time state, which the
//     forward analysis does not model).
package lockguard

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"nontree/internal/analysis"
	"nontree/internal/analysis/cfg"
)

// Directive is the comment marker declaring a guarded field.
const Directive = "nontree:guardedby"

var Analyzer = &analysis.Analyzer{
	Name: "lockguard",
	Doc:  "accesses to //nontree:guardedby fields must hold the named mutex (reads: RLock, writes: Lock)",
	Run:  run,
	// No Scope: the check is annotation-driven, so packages without
	// guardedby fields cost one directive scan.
}

// guard describes one guarded field: the mutex that protects it and
// whether that mutex distinguishes read from write locking.
type guard struct {
	mu *types.Var
	rw bool
}

// Lock modes. 0 (absent from the state) means not held.
const (
	modeRead  = 1 // RLock held
	modeWrite = 2 // Lock held
)

// lockKey identifies one held lock: the root variable the mutex was
// reached through plus the mutex field itself.
type lockKey struct {
	root types.Object
	mu   *types.Var
}

type lockState map[lockKey]int

func (s lockState) clone() lockState {
	c := make(lockState, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

func run(pass *analysis.Pass) error {
	guards := collectGuards(pass)
	if len(guards) == 0 {
		return nil
	}
	mus := make(map[*types.Var]bool, len(guards))
	for _, g := range guards {
		mus[g.mu] = true
	}
	c := &checker{pass: pass, guards: guards, mus: mus}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				c.checkFunc(fd.Body)
			}
		}
		// Every function literal is its own unit, entered lock-free: it may
		// run on another goroutine, so locks held at its creation site do
		// not transfer.
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				c.checkFunc(lit.Body)
			}
			return true
		})
	}
	return nil
}

// collectGuards scans struct declarations for guardedby directives,
// reporting malformed ones and returning the guarded-field table.
func collectGuards(pass *analysis.Pass) map[*types.Var]guard {
	guards := map[*types.Var]guard{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok || st.Fields == nil {
				return true
			}
			for _, field := range st.Fields.List {
				muName, ok := directiveOf(field)
				if !ok {
					continue
				}
				if len(field.Names) == 0 {
					pass.Reportf(field.Pos(), "guardedby directive on embedded field is not supported")
					continue
				}
				muIdent := findField(st, muName)
				if muIdent == nil {
					pass.Reportf(field.Pos(), "guardedby names %q, which is not a sibling field", muName)
					continue
				}
				muObj, _ := pass.Info.Defs[muIdent].(*types.Var)
				if muObj == nil {
					continue
				}
				rw, isMu := mutexType(muObj.Type())
				if !isMu {
					pass.Reportf(field.Pos(), "guardedby names %q, which is not a sync.Mutex or sync.RWMutex", muName)
					continue
				}
				for _, name := range field.Names {
					if obj, ok := pass.Info.Defs[name].(*types.Var); ok {
						guards[obj] = guard{mu: muObj, rw: rw}
					}
				}
			}
			return true
		})
	}
	return guards
}

// directiveOf extracts the mutex name from a field's doc or trailing
// comment. The bool reports whether a directive is present at all (even a
// malformed one, so it can be diagnosed).
func directiveOf(field *ast.Field) (string, bool) {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, "//"+Directive)
			if !ok {
				continue
			}
			fields := strings.Fields(text)
			if len(fields) == 0 {
				return "", true
			}
			return fields[0], true
		}
	}
	return "", false
}

// findField returns the declaring ident of the named field in st, nil when
// absent.
func findField(st *ast.StructType, name string) *ast.Ident {
	for _, f := range st.Fields.List {
		for _, id := range f.Names {
			if id.Name == name {
				return id
			}
		}
	}
	return nil
}

// mutexType reports whether t is sync.Mutex or sync.RWMutex (possibly via
// pointer), and whether it is the RW variant.
func mutexType(t types.Type) (rw, ok bool) {
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	n, isNamed := t.(*types.Named)
	if !isNamed {
		return false, false
	}
	obj := n.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false, false
	}
	switch obj.Name() {
	case "Mutex":
		return false, true
	case "RWMutex":
		return true, true
	}
	return false, false
}

type checker struct {
	pass   *analysis.Pass
	guards map[*types.Var]guard
	mus    map[*types.Var]bool
}

// checkFunc runs the held-locks analysis over one function body and
// reports unguarded accesses.
func (c *checker) checkFunc(body *ast.BlockStmt) {
	if !c.mentionsGuarded(body) {
		return
	}
	g := cfg.New(body)
	ins := cfg.Forward(g, cfg.Flow{
		Entry: func() any { return lockState{} },
		Transfer: func(b *cfg.Block, in any) any {
			state := in.(lockState).clone()
			for _, n := range b.Nodes {
				c.applyOps(n, state)
			}
			return state
		},
		Meet: func(a, b any) any {
			sa, sb := a.(lockState), b.(lockState)
			out := lockState{}
			for k, va := range sa {
				if vb, ok := sb[k]; ok {
					if vb < va {
						out[k] = vb
					} else {
						out[k] = va
					}
				}
			}
			return out
		},
		Equal: func(a, b any) bool {
			sa, sb := a.(lockState), b.(lockState)
			if len(sa) != len(sb) {
				return false
			}
			for k, va := range sa {
				if vb, ok := sb[k]; !ok || va != vb {
					return false
				}
			}
			return true
		},
	})
	for _, b := range g.Blocks {
		if ins[b.Index] == nil {
			continue // unreachable
		}
		state := ins[b.Index].(lockState).clone()
		for _, n := range b.Nodes {
			c.checkAccesses(n, state)
			c.applyOps(n, state)
		}
	}
}

// mentionsGuarded cheaply pre-filters: a body that never names a guarded
// field or a guarding mutex needs no dataflow.
func (c *checker) mentionsGuarded(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if v := c.fieldVar(sel); v != nil {
			if _, g := c.guards[v]; g || c.mus[v] {
				found = true
			}
		}
		return true
	})
	return found
}

// applyOps updates state for the lock/unlock calls inside one node.
// Function literals are separate units; defer runs at return — both are
// skipped.
func (c *checker) applyOps(node ast.Node, state lockState) {
	if _, isDefer := node.(*ast.DeferStmt); isDefer {
		return
	}
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit, *ast.DeferStmt:
			return false
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			var mode int
			kill := false
			switch sel.Sel.Name {
			case "Lock":
				mode = modeWrite
			case "RLock":
				mode = modeRead
			case "Unlock", "RUnlock":
				kill = true
			default:
				return true
			}
			key, ok := c.lockTarget(sel.X)
			if !ok {
				return true
			}
			if kill {
				delete(state, key)
			} else {
				state[key] = mode
			}
		}
		return true
	})
}

// lockTarget resolves the receiver of a Lock/Unlock-shaped call to a
// (root, mutex-field) key when the receiver is a guarding mutex field
// reached through a trackable root.
func (c *checker) lockTarget(recv ast.Expr) (lockKey, bool) {
	sel, ok := ast.Unparen(recv).(*ast.SelectorExpr)
	if !ok {
		return lockKey{}, false
	}
	mu := c.fieldVar(sel)
	if mu == nil || !c.mus[mu] {
		return lockKey{}, false
	}
	root := analysis.RootIdent(sel.X)
	if root == nil {
		return lockKey{}, false
	}
	obj := c.pass.Info.Uses[root]
	if obj == nil {
		obj = c.pass.Info.Defs[root]
	}
	if obj == nil {
		return lockKey{}, false
	}
	return lockKey{root: obj, mu: mu}, true
}

// fieldVar resolves a selector to the declared variable it selects. A
// field reached through an instantiated generic type is a distinct
// types.Var per instance; Origin maps it back to the declaration the
// directive table is keyed by.
func (c *checker) fieldVar(sel *ast.SelectorExpr) *types.Var {
	s := c.pass.Info.Selections[sel]
	if s == nil {
		return nil
	}
	v, ok := s.Obj().(*types.Var)
	if !ok {
		return nil
	}
	return v.Origin()
}

// checkAccesses reports guarded-field accesses in one node that the
// current state does not license.
func (c *checker) checkAccesses(node ast.Node, state lockState) {
	if _, isDefer := node.(*ast.DeferStmt); isDefer {
		return
	}
	writes := map[ast.Expr]bool{}
	markWrite := func(e ast.Expr) {
		for {
			switch x := ast.Unparen(e).(type) {
			case *ast.IndexExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.SliceExpr:
				e = x.X
			case *ast.SelectorExpr:
				writes[x] = true
				return
			default:
				return
			}
		}
	}
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit, *ast.DeferStmt:
			return false
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				markWrite(lhs)
			}
		case *ast.IncDecStmt:
			markWrite(n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				markWrite(n.X)
			}
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "delete" && len(n.Args) > 0 {
				if _, isBuiltin := c.pass.Info.Uses[id].(*types.Builtin); isBuiltin {
					markWrite(n.Args[0])
				}
			}
		case *ast.SelectorExpr:
			c.checkSelector(n, writes[n], state)
		}
		return true
	})
}

// checkSelector reports one guarded-field selector access when the
// required lock is not held.
func (c *checker) checkSelector(sel *ast.SelectorExpr, isWrite bool, state lockState) {
	v := c.fieldVar(sel)
	if v == nil {
		return
	}
	g, guarded := c.guards[v]
	if !guarded {
		return
	}
	need := modeRead
	verb := "read"
	if isWrite {
		need = modeWrite
		verb = "written"
	}
	root := analysis.RootIdent(sel.X)
	if root == nil {
		c.pass.Reportf(sel.Pos(), "guarded field %s %s through an untrackable expression; hold %s through a named root",
			v.Name(), verb, g.mu.Name())
		return
	}
	obj := c.pass.Info.Uses[root]
	if obj == nil {
		obj = c.pass.Info.Defs[root]
	}
	if obj == nil {
		return
	}
	held := state[lockKey{root: obj, mu: g.mu}]
	if held >= need {
		return
	}
	switch {
	case held == 0:
		c.pass.Reportf(sel.Pos(), "field %s is guarded by %s but %s without holding it",
			v.Name(), g.mu.Name(), verb)
	default:
		c.pass.Reportf(sel.Pos(), "field %s is guarded by %s and %s, but only the read lock is held",
			v.Name(), g.mu.Name(), verb)
	}
}
