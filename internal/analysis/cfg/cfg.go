// Package cfg builds intra-procedural control-flow graphs over go/ast and
// runs forward dataflow analyses on them, on the standard library alone —
// the flow-sensitive counterpart to the syntactic checks in
// internal/analysis (DESIGN.md §13).
//
// A Graph is a list of basic blocks; Blocks[0] is the entry. Each block
// holds the statements and decomposed control-head expressions executed
// straight-line through it, in execution order, plus successor edges.
// Composite control statements (if/for/range/switch/select) are never
// stored wholesale: their heads are decomposed into the blocks that
// evaluate them, so a client walking a block's Nodes with ast.Inspect sees
// every executed expression exactly once.
//
// Function literals are NOT inlined: a FuncLit appearing inside a
// statement is part of that statement's node (its body runs at some other
// time, possibly never, possibly concurrently). Clients analyzing FuncLit
// bodies build a separate Graph per literal.
//
// The builder is purely syntactic. It treats panic(...) as a terminator
// (precise enough for this repository, where panic is never recovered on
// an analyzed path) and cannot resolve shadowed `panic` identifiers.
package cfg

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// Block is one basic block.
type Block struct {
	// Index is the block's position in Graph.Blocks.
	Index int
	// Nodes holds the statements and control-head expressions executed in
	// this block, in execution order. Entries are simple statements
	// (assignments, calls, sends, returns, go/defer, declarations) or bare
	// expressions (if/for conditions, switch tags and case expressions, the
	// range operand, select comm statements).
	Nodes []ast.Node
	// Succs are the possible successor blocks, in source order.
	Succs []*Block
	// Ctrl is the loop statement heading this block, when the block is the
	// head (condition/operand evaluation) of a for or range loop: clients
	// use it to recognize e.g. `for range ch` channel-drain joins. Nil
	// elsewhere.
	Ctrl ast.Stmt
}

// Graph is a function body's control-flow graph. Blocks[0] is the entry.
type Graph struct {
	Blocks []*Block

	preds [][]int // lazily computed predecessor lists (see flow.go)
}

// New builds the control-flow graph of one function body. A nil body (a
// declaration without implementation) yields a graph with a single empty
// entry block.
func New(body *ast.BlockStmt) *Graph {
	b := &builder{g: &Graph{}}
	b.cur = b.newBlock()
	if body != nil {
		b.stmtList(body.List)
	}
	return b.g
}

// String renders the graph compactly for tests and debugging: one line per
// block with node counts and successor indices.
func (g *Graph) String() string {
	var sb strings.Builder
	for _, b := range g.Blocks {
		fmt.Fprintf(&sb, "b%d[%d]:", b.Index, len(b.Nodes))
		for _, s := range b.Succs {
			fmt.Fprintf(&sb, " b%d", s.Index)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// ctx is one enclosing breakable/continuable construct on the builder's
// stack.
type ctx struct {
	label string // enclosing statement label, "" when unlabeled
	brk   *Block // break target; non-nil for loops, switches, selects
	cont  *Block // continue target; non-nil for loops only
}

type builder struct {
	g     *Graph
	cur   *Block
	stack []ctx
	// fall is the stack of fallthrough targets: the next case clause's body
	// while building a switch clause (nil entry when there is no next
	// clause).
	fall []*Block
	// labels maps label name → target block, created at the LabeledStmt or
	// eagerly by a forward goto.
	labels map[string]*Block
}

func (b *builder) newBlock() *Block {
	blk := &Block{Index: len(b.g.Blocks)}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func edge(from, to *Block) { from.Succs = append(from.Succs, to) }

// add appends a node to the current block.
func (b *builder) add(n ast.Node) { b.cur.Nodes = append(b.cur.Nodes, n) }

// terminate ends the current block with no fallthrough successor;
// subsequent statements land in a fresh (unreachable unless jumped-to)
// block.
func (b *builder) terminate() { b.cur = b.newBlock() }

// labelTarget returns the block for a label, creating it on first use
// (forward gotos reference labels before their LabeledStmt is reached).
func (b *builder) labelTarget(name string) *Block {
	if b.labels == nil {
		b.labels = map[string]*Block{}
	}
	if t, ok := b.labels[name]; ok {
		return t
	}
	t := b.newBlock()
	b.labels[name] = t
	return t
}

func (b *builder) findBreak(label string) *Block {
	for i := len(b.stack) - 1; i >= 0; i-- {
		c := b.stack[i]
		if c.brk == nil {
			continue
		}
		if label == "" || c.label == label {
			return c.brk
		}
	}
	return nil
}

func (b *builder) findContinue(label string) *Block {
	for i := len(b.stack) - 1; i >= 0; i-- {
		c := b.stack[i]
		if c.cont == nil {
			continue
		}
		if label == "" || c.label == label {
			return c.cont
		}
	}
	return nil
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s, "")
	}
}

// stmt builds one statement. label is the name of the LabeledStmt directly
// wrapping it ("" when unlabeled); loops and switches record it so labeled
// break/continue resolve.
func (b *builder) stmt(s ast.Stmt, label string) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.LabeledStmt:
		target := b.labelTarget(s.Label.Name)
		edge(b.cur, target)
		b.cur = target
		b.stmt(s.Stmt, s.Label.Name)

	case *ast.IfStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Cond)
		head := b.cur
		join := b.newBlock()
		then := b.newBlock()
		edge(head, then)
		b.cur = then
		b.stmtList(s.Body.List)
		edge(b.cur, join)
		if s.Else != nil {
			els := b.newBlock()
			edge(head, els)
			b.cur = els
			b.stmt(s.Else, "")
			edge(b.cur, join)
		} else {
			edge(head, join)
		}
		b.cur = join

	case *ast.ForStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		head := b.newBlock()
		edge(b.cur, head)
		head.Ctrl = s
		if s.Cond != nil {
			head.Nodes = append(head.Nodes, s.Cond)
		}
		exit := b.newBlock()
		if s.Cond != nil {
			edge(head, exit) // `for {}` without cond exits only via break
		}
		contTarget := head
		if s.Post != nil {
			post := b.newBlock()
			post.Nodes = append(post.Nodes, s.Post)
			edge(post, head)
			contTarget = post
		}
		body := b.newBlock()
		edge(head, body)
		b.stack = append(b.stack, ctx{label: label, brk: exit, cont: contTarget})
		b.cur = body
		b.stmtList(s.Body.List)
		edge(b.cur, contTarget)
		b.stack = b.stack[:len(b.stack)-1]
		b.cur = exit

	case *ast.RangeStmt:
		head := b.newBlock()
		edge(b.cur, head)
		head.Ctrl = s
		head.Nodes = append(head.Nodes, s.X)
		exit := b.newBlock()
		edge(head, exit)
		body := b.newBlock()
		edge(head, body)
		// Key/Value are assigned per iteration; record them at the body top
		// so accesses through them are visible. (They are recorded as bare
		// expressions, so a client sees them as reads — a range that assigns
		// *into* guarded state via Key/Value is out of scope.)
		if s.Key != nil {
			body.Nodes = append(body.Nodes, s.Key)
		}
		if s.Value != nil {
			body.Nodes = append(body.Nodes, s.Value)
		}
		b.stack = append(b.stack, ctx{label: label, brk: exit, cont: head})
		b.cur = body
		b.stmtList(s.Body.List)
		edge(b.cur, head)
		b.stack = b.stack[:len(b.stack)-1]
		b.cur = exit

	case *ast.SwitchStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.switchClauses(s.Body.List, label, func(cc *ast.CaseClause) ([]ast.Node, []ast.Stmt, bool) {
			nodes := make([]ast.Node, len(cc.List))
			for i, e := range cc.List {
				nodes[i] = e
			}
			return nodes, cc.Body, cc.List == nil
		})

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Assign)
		b.switchClauses(s.Body.List, label, func(cc *ast.CaseClause) ([]ast.Node, []ast.Stmt, bool) {
			// Case types carry no evaluated expressions.
			return nil, cc.Body, cc.List == nil
		})

	case *ast.SelectStmt:
		head := b.cur
		exit := b.newBlock()
		b.stack = append(b.stack, ctx{label: label, brk: exit})
		for _, raw := range s.Body.List {
			cc := raw.(*ast.CommClause)
			cb := b.newBlock()
			edge(head, cb)
			if cc.Comm != nil {
				cb.Nodes = append(cb.Nodes, cc.Comm)
			}
			b.cur = cb
			b.stmtList(cc.Body)
			edge(b.cur, exit)
		}
		b.stack = b.stack[:len(b.stack)-1]
		// `select {}` blocks forever: exit has no predecessors then.
		b.cur = exit

	case *ast.BranchStmt:
		label := ""
		if s.Label != nil {
			label = s.Label.Name
		}
		switch s.Tok {
		case token.BREAK:
			if t := b.findBreak(label); t != nil {
				edge(b.cur, t)
			}
		case token.CONTINUE:
			if t := b.findContinue(label); t != nil {
				edge(b.cur, t)
			}
		case token.GOTO:
			edge(b.cur, b.labelTarget(label))
		case token.FALLTHROUGH:
			if n := len(b.fall); n > 0 && b.fall[n-1] != nil {
				edge(b.cur, b.fall[n-1])
			}
		}
		b.terminate()

	case *ast.ReturnStmt:
		b.add(s)
		b.terminate()

	case *ast.ExprStmt:
		b.add(s)
		if isPanicCall(s.X) {
			b.terminate()
		}

	case nil:
		// Empty else branch and friends.

	default:
		// Simple statements: assignments, declarations, inc/dec, sends,
		// go/defer, empty statements.
		b.add(s)
	}
}

// switchClauses builds the clause blocks shared by expression and type
// switches. decompose returns a clause's evaluated head expressions, its
// body, and whether it is the default clause.
func (b *builder) switchClauses(clauses []ast.Stmt, label string, decompose func(*ast.CaseClause) ([]ast.Node, []ast.Stmt, bool)) {
	head := b.cur
	exit := b.newBlock()
	bodies := make([]*Block, len(clauses))
	for i := range clauses {
		bodies[i] = b.newBlock()
	}
	b.stack = append(b.stack, ctx{label: label, brk: exit})
	hasDefault := false
	for i, raw := range clauses {
		cc := raw.(*ast.CaseClause)
		nodes, body, isDefault := decompose(cc)
		// Case expressions evaluate in the head, in clause order.
		head.Nodes = append(head.Nodes, nodes...)
		if isDefault {
			hasDefault = true
		}
		edge(head, bodies[i])
		var next *Block
		if i+1 < len(clauses) {
			next = bodies[i+1]
		}
		b.fall = append(b.fall, next)
		b.cur = bodies[i]
		b.stmtList(body)
		edge(b.cur, exit)
		b.fall = b.fall[:len(b.fall)-1]
	}
	b.stack = b.stack[:len(b.stack)-1]
	if !hasDefault {
		edge(head, exit)
	}
	b.cur = exit
}

// isPanicCall reports whether e is a call to the builtin panic. Purely
// syntactic: a shadowed `panic` identifier is misclassified (harmlessly —
// the block merely terminates early).
func isPanicCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}
