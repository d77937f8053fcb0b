// Package lockorder detects potential deadlocks: cycles in the global
// lock-acquisition-order graph. It is the interprocedural escalation of
// lockguard — where lockguard checks that guarded fields are accessed
// under their mutex, lockorder checks that mutexes are always *nested*
// in one consistent order across the whole repository.
//
// # Model
//
// Mutexes are abstracted to lock classes: "pkg.(Type).field" for a
// sync.Mutex/RWMutex struct field, "pkg.name" for a package-level mutex
// variable (local mutex variables are untrackable and ignored). A
// flow-sensitive held-set analysis over each function's CFG (may-held:
// union at merges) records an ordering edge A → B whenever some path
// acquires B while holding A — including acquisitions buried in callees,
// resolved through the callgraph and each callee's exported summary, so
// an edge laundered through any depth of helpers is still seen. Per-
// function summaries {Locks, Pairs} are computed bottom-up over the SCC
// condensation (callgraph.Summarize) and exported as facts ("lo.fn.<ID>"),
// so edges compose across package boundaries exactly like every other
// fact in this framework.
//
// A cycle A → … → B → A means two goroutines can acquire the classes in
// opposite orders and deadlock; the diagnostic shows this edge's
// acquisition path and the reverse path closing the cycle. Acquiring a
// class while already holding it is reported as a self-deadlock
// (sync.Mutex is not reentrant).
//
// # Soundness caveats (DESIGN.md §14)
//
//   - Classes are per-type, not per-instance: locking two distinct
//     instances of one type in a loop flags a self-cycle even when a
//     global instance order exists. No such pattern exists here; one
//     would need a //nontree:allow lockorder annotation arguing the
//     instance order.
//   - Callees are assumed to release what they acquire (the
//     lock/defer-unlock idiom this repository uses exclusively); a helper
//     that returns holding a lock escapes the held-set model.
//   - go statements are skipped: a spawned goroutine's acquisitions do
//     not nest with the spawner's held set (they race with it instead,
//     which is the -race sweep's department). The literal's own nesting
//     is still summarized and contributes edges.
package lockorder

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"nontree/internal/analysis"
	"nontree/internal/analysis/callgraph"
	"nontree/internal/analysis/cfg"
)

var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc:  "mutex classes must be acquired in one consistent global order; ordering cycles are potential deadlocks",
	Run:  run,
	// No Scope: edges can originate anywhere mutexes are used.
}

// factPrefix keys the per-function summaries in the analyzer's fact
// store: "lo.fn.<function ID>" → fnSummary.
const factPrefix = "lo.fn."

// lockAcq is one lock class a function may acquire, with a witness.
type lockAcq struct {
	Class string `json:"class"`
	// Pos is the acquisition site, "file:line".
	Pos string `json:"pos"`
	// Via is the call chain from the summarized function to the acquiring
	// one, outermost first; empty for a direct acquisition.
	Via []string `json:"via,omitempty"`
}

// lockPair is one ordering edge: To acquired while From held.
type lockPair struct {
	From string `json:"from"`
	To   string `json:"to"`
	// Pos is the acquisition site of To, "file:line".
	Pos string `json:"pos"`
	// Fn is the function the edge was observed in.
	Fn string `json:"fn"`
	// Via is the call chain through which To is acquired; empty = direct.
	Via []string `json:"via,omitempty"`
}

// fnSummary is the exported per-function fact.
type fnSummary struct {
	Locks []lockAcq  `json:"locks,omitempty"`
	Pairs []lockPair `json:"pairs,omitempty"`
}

func run(pass *analysis.Pass) error {
	g := callgraph.Build(pass)
	c := &checker{pass: pass}

	sums := callgraph.SummarizeTyped(g, callgraph.Summarizer[fnSummary]{
		Bottom: func(n *callgraph.Node) fnSummary { return fnSummary{} },
		Transfer: func(n *callgraph.Node, callee func(string) (fnSummary, bool)) fnSummary {
			return c.summarize(n, callee, nil)
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
		if len(s.Locks) == 0 && len(s.Pairs) == 0 {
			continue
		}
		if err := pass.Facts.Export(pass.Pkg.Path(), factPrefix+n.ID, s); err != nil {
			return err
		}
	}

	// Re-walk each node against the final summaries, collecting this
	// package's edges with real token positions for reporting.
	lookup := func(id string) (fnSummary, bool) {
		if s, ok := sums[id]; ok {
			return s, true
		}
		var s fnSummary
		ok := pass.Facts.Import(factPrefix+id, &s)
		return s, ok
	}
	var local []localPair
	for _, n := range g.Nodes {
		c.summarize(n, lookup, func(p localPair) { local = append(local, p) })
	}

	c.reportCycles(local)
	return nil
}

// localPair is an in-package ordering edge with its reportable position.
type localPair struct {
	from, to string
	pos      token.Pos
	fn       string
	via      []string
}

type checker struct {
	pass *analysis.Pass
}

// heldSet is the dataflow state: the set of lock classes that may be held.
type heldSet map[string]bool

func (s heldSet) clone() heldSet {
	c := make(heldSet, len(s))
	for k := range s {
		c[k] = true
	}
	return c
}

// summarize computes one node's summary: direct and callee-transitive
// acquisitions (Locks) and ordering edges observed under the may-held CFG
// analysis (Pairs). When emit is non-nil every edge is also reported to
// it with its token position (the final diagnostics pass).
func (c *checker) summarize(n *callgraph.Node, callee func(string) (fnSummary, bool), emit func(localPair)) fnSummary {
	var sum fnSummary
	if n.Body == nil {
		return sum
	}
	seenLock := map[string]bool{}
	seenPair := map[string]bool{}
	// Dedup on Class alone: the via chain is a first-wins witness, not
	// lattice content — keying on it would let recursive call chains
	// (e.g. an interface method resolving back to itself) grow the list
	// unboundedly and defeat the fixpoint.
	addLock := func(a lockAcq) {
		if !seenLock[a.Class] {
			seenLock[a.Class] = true
			sum.Locks = append(sum.Locks, a)
		}
	}
	addPair := func(p lockPair, pos token.Pos) {
		if !seenPair[p.From+"|"+p.To] {
			seenPair[p.From+"|"+p.To] = true
			sum.Pairs = append(sum.Pairs, p)
			if emit != nil {
				emit(localPair{from: p.From, to: p.To, pos: pos, fn: p.Fn, via: p.Via})
			}
		}
	}

	// Flow-insensitive Locks: every acquisition anywhere in the body plus
	// every callee's, with the call chain recorded.
	c.walkOps(n, n.Body, func(op lockOp) {
		if op.kill {
			return
		}
		addLock(lockAcq{Class: op.class, Pos: callgraph.PosString(c.pass.Fset, op.pos)})
	}, func(call *ast.CallExpr, goStmt bool) {
		if goStmt {
			return
		}
		for _, target := range n.Resolutions[call] {
			cs, ok := callee(target)
			if !ok {
				continue
			}
			for _, l := range cs.Locks {
				addLock(lockAcq{
					Class: l.Class,
					Pos:   callgraph.PosString(c.pass.Fset, call.Pos()),
					Via:   append([]string{target}, l.Via...),
				})
			}
		}
	})

	// Flow-sensitive Pairs: may-held set over the CFG.
	fid := n.ID
	g := cfg.New(n.Body)
	ins := cfg.Forward(g, cfg.Flow{
		Entry: func() any { return heldSet{} },
		Transfer: func(b *cfg.Block, in any) any {
			state := in.(heldSet).clone()
			for _, node := range b.Nodes {
				c.applyOps(node, state)
			}
			return state
		},
		Meet: func(a, b any) any {
			sa, sb := a.(heldSet), b.(heldSet)
			out := make(heldSet, len(sa)+len(sb))
			for k := range sa {
				out[k] = true
			}
			for k := range sb {
				out[k] = true
			}
			return out
		},
		Equal: func(a, b any) bool {
			sa, sb := a.(heldSet), b.(heldSet)
			if len(sa) != len(sb) {
				return false
			}
			for k := range sa {
				if !sb[k] {
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
		state := ins[b.Index].(heldSet).clone()
		for _, node := range b.Nodes {
			c.walkOps(n, node, func(op lockOp) {
				if op.kill {
					return
				}
				if state[op.class] {
					addPair(lockPair{
						From: op.class, To: op.class, Fn: fid,
						Pos: callgraph.PosString(c.pass.Fset, op.pos),
					}, op.pos)
					return
				}
				for _, held := range sortedKeys(state) {
					addPair(lockPair{
						From: held, To: op.class, Fn: fid,
						Pos: callgraph.PosString(c.pass.Fset, op.pos),
					}, op.pos)
				}
			}, func(call *ast.CallExpr, goStmt bool) {
				if goStmt || len(state) == 0 {
					return
				}
				for _, target := range n.Resolutions[call] {
					cs, ok := callee(target)
					if !ok {
						continue
					}
					for _, l := range cs.Locks {
						via := append([]string{target}, l.Via...)
						if state[l.Class] {
							addPair(lockPair{
								From: l.Class, To: l.Class, Fn: fid, Via: via,
								Pos: callgraph.PosString(c.pass.Fset, call.Pos()),
							}, call.Pos())
							continue
						}
						for _, held := range sortedKeys(state) {
							addPair(lockPair{
								From: held, To: l.Class, Fn: fid, Via: via,
								Pos: callgraph.PosString(c.pass.Fset, call.Pos()),
							}, call.Pos())
						}
					}
				}
			})
			c.applyOps(node, state)
		}
	}
	return sum
}

// lockOp is one direct mutex operation on a trackable class.
type lockOp struct {
	class string
	pos   token.Pos
	kill  bool // Unlock/RUnlock
}

// walkOps walks one AST node, invoking onOp for every direct mutex
// operation and onCall for every resolvable call site (with its go-ness).
// Nested function literals are their own units; go-statement subtrees
// contribute calls flagged goStmt=true so callers can skip them.
func (c *checker) walkOps(n *callgraph.Node, node ast.Node, onOp func(lockOp), onCall func(*ast.CallExpr, bool)) {
	var walk func(ast.Node, bool)
	walk = func(nd ast.Node, inGo bool) {
		ast.Inspect(nd, func(m ast.Node) bool {
			if m == nil {
				return false
			}
			switch x := m.(type) {
			case *ast.FuncLit:
				if _, nested := n.LitIDs[x]; nested && x != nd {
					return false
				}
			case *ast.GoStmt:
				walk(x.Call, true)
				return false
			case *ast.CallExpr:
				if op, ok := c.lockOpOf(x); ok {
					if !inGo {
						onOp(op)
					}
					return true
				}
				onCall(x, inGo)
			}
			return true
		})
	}
	walk(node, false)
}

// applyOps updates the held set for direct operations in one CFG node.
// Deferred statements are skipped (a deferred Unlock runs at return, so
// it must not kill the held fact mid-function; deferred acquisitions are
// handled by walkOps at reporting time).
func (c *checker) applyOps(node ast.Node, state heldSet) {
	if _, isDefer := node.(*ast.DeferStmt); isDefer {
		return
	}
	ast.Inspect(node, func(m ast.Node) bool {
		switch x := m.(type) {
		case *ast.FuncLit, *ast.DeferStmt, *ast.GoStmt:
			return false
		case *ast.CallExpr:
			if op, ok := c.lockOpOf(x); ok {
				if op.kill {
					delete(state, op.class)
				} else {
					state[op.class] = true
				}
			}
		}
		return true
	})
}

// lockOpOf resolves a call to a mutex operation on a trackable class.
func (c *checker) lockOpOf(call *ast.CallExpr) (lockOp, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return lockOp{}, false
	}
	kill := false
	switch sel.Sel.Name {
	case "Lock", "RLock":
	case "Unlock", "RUnlock":
		kill = true
	default:
		return lockOp{}, false
	}
	// The method must belong to sync.Mutex/RWMutex.
	if fn, ok := c.pass.Info.Uses[sel.Sel].(*types.Func); !ok || !isSyncMutexMethod(fn) {
		return lockOp{}, false
	}
	class, ok := c.lockClass(sel.X)
	if !ok {
		return lockOp{}, false
	}
	return lockOp{class: class, pos: call.Pos(), kill: kill}, true
}

// isSyncMutexMethod reports whether fn is declared on sync.Mutex or
// sync.RWMutex.
func isSyncMutexMethod(fn *types.Func) bool {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

// lockClass abstracts a mutex receiver expression to its class:
// "pkg.(Type).field" for a struct field, "pkg.name" for a package-level
// variable. Local mutex variables and untrackable expressions report
// false.
func (c *checker) lockClass(recv ast.Expr) (string, bool) {
	switch x := ast.Unparen(recv).(type) {
	case *ast.Ident:
		v, ok := c.pass.Info.Uses[x].(*types.Var)
		if !ok || v.Pkg() == nil {
			return "", false
		}
		if v.Parent() != v.Pkg().Scope() {
			return "", false // local mutex: untrackable
		}
		return v.Pkg().Path() + "." + v.Name(), true
	case *ast.SelectorExpr:
		if s := c.pass.Info.Selections[x]; s != nil {
			v, ok := s.Obj().(*types.Var)
			if !ok || !v.IsField() || v.Pkg() == nil {
				return "", false
			}
			t := s.Recv()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			named, ok := t.(*types.Named)
			if !ok {
				return "", false
			}
			return v.Pkg().Path() + ".(" + named.Obj().Name() + ")." + v.Name(), true
		}
		// Package-qualified package-level variable: pkg.mu.
		if v, ok := c.pass.Info.Uses[x.Sel].(*types.Var); ok && v.Pkg() != nil &&
			v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Path() + "." + v.Name(), true
		}
	}
	return "", false
}

// edge is one direction of the global ordering graph with its witness.
type edge struct {
	to, pos, fn string
	via         []string
}

// reportCycles builds the global ordering graph from every exported
// summary (this package's and every dependency's) and reports each local
// edge that closes a cycle, plus self-edges.
func (c *checker) reportCycles(local []localPair) {
	adj := map[string][]edge{}
	for _, key := range c.pass.Facts.KeysWithPrefix(factPrefix) {
		var s fnSummary
		if !c.pass.Facts.Import(key, &s) {
			continue
		}
		for _, p := range s.Pairs {
			adj[p.From] = append(adj[p.From], edge{to: p.To, pos: p.Pos, fn: p.Fn, via: p.Via})
		}
	}
	for from := range adj {
		es := adj[from]
		sort.Slice(es, func(i, j int) bool {
			if es[i].to != es[j].to {
				return es[i].to < es[j].to
			}
			return es[i].pos < es[j].pos
		})
		adj[from] = es
	}

	for _, p := range local {
		if p.from == p.to {
			msg := fmt.Sprintf("potential self-deadlock: %s acquires %s while already holding it", p.fn, p.from)
			if len(p.via) > 0 {
				msg += " (via " + strings.Join(p.via, " -> ") + ")"
			}
			c.pass.Report(p.pos, msg)
			continue
		}
		path := findPath(adj, p.to, p.from)
		if path == nil {
			continue
		}
		msg := fmt.Sprintf("potential deadlock: %s acquires %s while holding %s", p.fn, p.to, p.from)
		if len(p.via) > 0 {
			msg += " (via " + strings.Join(p.via, " -> ") + ")"
		}
		msg += "; reverse path: " + describePath(p.to, path)
		c.pass.Report(p.pos, msg)
	}
}

// findPath returns the shortest edge path from `from` to `to` in the
// global graph (BFS over sorted adjacency — deterministic), nil when
// unreachable.
func findPath(adj map[string][]edge, from, to string) []edge {
	type step struct {
		class string
		path  []edge
	}
	visited := map[string]bool{from: true}
	queue := []step{{class: from}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, e := range adj[cur.class] {
			if visited[e.to] {
				continue
			}
			path := append(append([]edge{}, cur.path...), e)
			if e.to == to {
				return path
			}
			visited[e.to] = true
			queue = append(queue, step{class: e.to, path: path})
		}
	}
	return nil
}

// describePath renders "A -> B at f.go:10 in pkg.f (via ...) -> C at ...".
func describePath(start string, path []edge) string {
	var b strings.Builder
	b.WriteString(start)
	for _, e := range path {
		b.WriteString(" -> " + e.to + " at " + e.pos + " in " + e.fn)
		if len(e.via) > 0 {
			b.WriteString(" (via " + strings.Join(e.via, " -> ") + ")")
		}
	}
	return b.String()
}

func summariesEqual(a, b fnSummary) bool {
	if len(a.Locks) != len(b.Locks) || len(a.Pairs) != len(b.Pairs) {
		return false
	}
	ak, bk := map[string]bool{}, map[string]bool{}
	for _, l := range a.Locks {
		ak[l.Class] = true
	}
	for _, l := range b.Locks {
		bk[l.Class] = true
	}
	for k := range ak {
		if !bk[k] {
			return false
		}
	}
	ap, bp := map[string]bool{}, map[string]bool{}
	for _, p := range a.Pairs {
		ap[p.From+"|"+p.To] = true
	}
	for _, p := range b.Pairs {
		bp[p.From+"|"+p.To] = true
	}
	for k := range ap {
		if !bp[k] {
			return false
		}
	}
	return true
}

func sortedKeys(s heldSet) []string {
	out := make([]string, 0, len(s))
	for k := range s {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
