package cfg

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// parseBody parses src as the body of a function and returns its graph.
func parseBody(t *testing.T, body string) (*token.FileSet, *Graph) {
	t.Helper()
	fset := token.NewFileSet()
	src := "package p\nfunc f() {\n" + body + "\n}\n"
	f, err := parser.ParseFile(fset, "t.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	fn := f.Decls[len(f.Decls)-1].(*ast.FuncDecl)
	return fset, New(fn.Body)
}

// nodeText renders a node's source-ish identity for assertions: the first
// identifier or literal token found.
func firstIdent(n ast.Node) string {
	name := ""
	ast.Inspect(n, func(x ast.Node) bool {
		if name != "" {
			return false
		}
		if id, ok := x.(*ast.Ident); ok {
			name = id.Name
			return false
		}
		return true
	})
	return name
}

// blockIdents lists the first identifier of every node in a block.
func blockIdents(b *Block) []string {
	var out []string
	for _, n := range b.Nodes {
		out = append(out, firstIdent(n))
	}
	return out
}

func TestStraightLine(t *testing.T) {
	_, g := parseBody(t, "a := 1\nb := a\n_ = b")
	if len(g.Blocks) != 1 {
		t.Fatalf("expected 1 block, got %d:\n%s", len(g.Blocks), g)
	}
	if got := blockIdents(g.Blocks[0]); len(got) != 3 {
		t.Fatalf("expected 3 nodes, got %v", got)
	}
}

func TestIfElseJoins(t *testing.T) {
	_, g := parseBody(t, `
a := 1
if a > 0 {
	a = 2
} else {
	a = 3
}
_ = a`)
	// entry, join, then, else
	if len(g.Blocks) != 4 {
		t.Fatalf("expected 4 blocks, got %d:\n%s", len(g.Blocks), g)
	}
	entry := g.Blocks[0]
	if len(entry.Succs) != 2 {
		t.Fatalf("entry should have 2 successors, got %d", len(entry.Succs))
	}
	join := g.Blocks[1]
	if got := blockIdents(join); len(got) != 1 || got[0] != "_" {
		t.Errorf("join block nodes = %v, want the trailing assignment", got)
	}
	for _, s := range entry.Succs {
		if len(s.Succs) != 1 || s.Succs[0] != join {
			t.Errorf("branch block b%d does not flow to join", s.Index)
		}
	}
}

func TestIfWithoutElseFallsThrough(t *testing.T) {
	_, g := parseBody(t, "a := 1\nif a > 0 {\n\ta = 2\n}\n_ = a")
	entry := g.Blocks[0]
	join := g.Blocks[1]
	// head → then and head → join directly.
	found := false
	for _, s := range entry.Succs {
		if s == join {
			found = true
		}
	}
	if !found {
		t.Fatalf("if without else must edge head → join:\n%s", g)
	}
}

func TestForLoopShape(t *testing.T) {
	_, g := parseBody(t, `
for i := 0; i < 3; i++ {
	_ = i
}
done()`)
	// Find the head: the block whose Ctrl is the ForStmt.
	var head *Block
	for _, b := range g.Blocks {
		if _, ok := b.Ctrl.(*ast.ForStmt); ok {
			head = b
		}
	}
	if head == nil {
		t.Fatalf("no block carries the ForStmt Ctrl:\n%s", g)
	}
	if len(head.Succs) != 2 {
		t.Fatalf("loop head should branch to exit and body, got %d succs", len(head.Succs))
	}
	// The loop must contain a cycle back to the head.
	reach := reachable(g)
	for i, ok := range reach {
		if !ok && len(g.Blocks[i].Nodes) > 0 {
			t.Errorf("block b%d with nodes is unreachable", i)
		}
	}
}

func TestInfiniteLoopExitUnreachable(t *testing.T) {
	_, g := parseBody(t, "for {\n\tspin()\n}\nafter()")
	reach := reachable(g)
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			if firstIdent(n) == "after" && reach[b.Index] {
				t.Fatalf("code after `for {}` must be unreachable:\n%s", g)
			}
		}
	}
}

func TestBreakReachesExit(t *testing.T) {
	_, g := parseBody(t, `
for {
	if stop() {
		break
	}
}
after()`)
	reach := reachable(g)
	found := false
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			if firstIdent(n) == "after" && reach[b.Index] {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("break must make post-loop code reachable:\n%s", g)
	}
}

func TestLabeledBreak(t *testing.T) {
	_, g := parseBody(t, `
outer:
for {
	for {
		break outer
	}
}
after()`)
	reach := reachable(g)
	found := false
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			if firstIdent(n) == "after" && reach[b.Index] {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("labeled break must escape both loops:\n%s", g)
	}
}

func TestReturnTerminates(t *testing.T) {
	_, g := parseBody(t, "return\nunreached()")
	reach := reachable(g)
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			if firstIdent(n) == "unreached" && reach[b.Index] {
				t.Fatalf("code after return must be unreachable:\n%s", g)
			}
		}
	}
}

func TestPanicTerminates(t *testing.T) {
	_, g := parseBody(t, `panic("boom")
unreached()`)
	reach := reachable(g)
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			if firstIdent(n) == "unreached" && reach[b.Index] {
				t.Fatalf("code after panic must be unreachable:\n%s", g)
			}
		}
	}
}

func TestSwitchFallthrough(t *testing.T) {
	_, g := parseBody(t, `
switch x() {
case 1:
	one()
	fallthrough
case 2:
	two()
default:
	other()
}
after()`)
	// Find the clause block holding one(); its successors must include the
	// block holding two().
	var oneB, twoB *Block
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			switch firstIdent(n) {
			case "one":
				oneB = b
			case "two":
				twoB = b
			}
		}
	}
	if oneB == nil || twoB == nil {
		t.Fatalf("clause blocks not found:\n%s", g)
	}
	found := false
	for _, s := range oneB.Succs {
		if s == twoB {
			found = true
		}
	}
	if !found {
		t.Fatalf("fallthrough must edge case 1 → case 2:\n%s", g)
	}
}

func TestSwitchWithDefaultHasNoHeadExitEdge(t *testing.T) {
	_, g := parseBody(t, `
switch x() {
case 1:
	one()
default:
	other()
}
return`)
	// With a default clause every path goes through a clause; the head must
	// not edge straight to the exit. Head = entry block here.
	entry := g.Blocks[0]
	if len(entry.Succs) != 2 {
		t.Fatalf("switch head should have exactly the 2 clause successors, got %d:\n%s", len(entry.Succs), g)
	}
}

func TestSelectCommNodesRecorded(t *testing.T) {
	_, g := parseBody(t, `
select {
case v := <-ch:
	use(v)
case out <- 1:
	sent()
}`)
	// Each comm clause block's first node is the comm statement.
	receives := 0
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			ast.Inspect(n, func(x ast.Node) bool {
				if u, ok := x.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
					receives++
				}
				return true
			})
		}
	}
	if receives == 0 {
		t.Fatalf("select receive comm not recorded in any block:\n%s", g)
	}
}

func TestGotoForward(t *testing.T) {
	_, g := parseBody(t, `
goto done
skipped()
done:
after()`)
	reach := reachable(g)
	sawAfter, sawSkipped := false, false
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			switch firstIdent(n) {
			case "after":
				sawAfter = sawAfter || reach[b.Index]
			case "skipped":
				sawSkipped = sawSkipped || reach[b.Index]
			}
		}
	}
	if !sawAfter {
		t.Errorf("goto target must be reachable:\n%s", g)
	}
	if sawSkipped {
		t.Errorf("statement jumped over must be unreachable:\n%s", g)
	}
}

func TestRangeHeadCtrl(t *testing.T) {
	_, g := parseBody(t, "for k, v := range m {\n\tuse(k, v)\n}")
	var head *Block
	for _, b := range g.Blocks {
		if _, ok := b.Ctrl.(*ast.RangeStmt); ok {
			head = b
		}
	}
	if head == nil {
		t.Fatalf("range head Ctrl not set:\n%s", g)
	}
	if got := blockIdents(head); len(got) != 1 || got[0] != "m" {
		t.Errorf("range head should evaluate the operand, got %v", got)
	}
}

func TestNilBody(t *testing.T) {
	g := New(nil)
	if len(g.Blocks) != 1 || len(g.Blocks[0].Nodes) != 0 {
		t.Fatalf("nil body should yield one empty block, got:\n%s", g)
	}
}

// TestForwardLockToy runs the dataflow engine on a toy "is the lock held"
// analysis: lock()/unlock() calls gen/kill a single bit; the merge of a
// held and a not-held path must report not-held (meet = AND).
func TestForwardLockToy(t *testing.T) {
	_, g := parseBody(t, `
lock()
if cond() {
	unlock()
}
probe()`)
	flow := Flow{
		Entry: func() any { return false },
		Transfer: func(b *Block, in any) any {
			held := in.(bool)
			for _, n := range b.Nodes {
				ast.Inspect(n, func(x ast.Node) bool {
					call, ok := x.(*ast.CallExpr)
					if !ok {
						return true
					}
					switch firstIdent(call.Fun) {
					case "lock":
						held = true
					case "unlock":
						held = false
					}
					return true
				})
			}
			return held
		},
		Meet:  func(a, b any) any { return a.(bool) && b.(bool) },
		Equal: func(a, b any) bool { return a == b },
	}
	ins := Forward(g, flow)
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			if firstIdent(n) == "probe" {
				if ins[b.Index] == nil {
					t.Fatalf("probe block unreachable:\n%s", g)
				}
				if held := ins[b.Index].(bool); held {
					t.Errorf("merge of held/not-held must be not-held at probe")
				}
			}
		}
	}
}

// TestForwardLoopFixpoint verifies the engine converges on a loop: a fact
// generated before the loop must survive the back edge.
func TestForwardLoopFixpoint(t *testing.T) {
	_, g := parseBody(t, `
lock()
for i := 0; i < 3; i++ {
	probe()
}
after()`)
	flow := Flow{
		Entry: func() any { return false },
		Transfer: func(b *Block, in any) any {
			held := in.(bool)
			for _, n := range b.Nodes {
				if firstIdent(n) == "lock" {
					held = true
				}
			}
			return held
		},
		Meet:  func(a, b any) any { return a.(bool) && b.(bool) },
		Equal: func(a, b any) bool { return a == b },
	}
	ins := Forward(g, flow)
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			if firstIdent(n) == "probe" || firstIdent(n) == "after" {
				if ins[b.Index] == nil || !ins[b.Index].(bool) {
					t.Errorf("lock fact lost at %s (block b%d)", firstIdent(n), b.Index)
				}
			}
		}
	}
}

// TestDeferOrderRecorded pins the defer representation: defers are plain
// nodes at their syntactic position, in source order — the graph does not
// model the LIFO run-at-exit semantics, and clients (lockguard's
// deferred-unlock handling) rely on seeing them in registration order.
func TestDeferOrderRecorded(t *testing.T) {
	_, g := parseBody(t, "defer a()\ndefer b()\nwork()")
	if len(g.Blocks) != 1 {
		t.Fatalf("straight-line defers should stay one block:\n%s", g)
	}
	got := blockIdents(g.Blocks[0])
	want := []string{"a", "b", "work"}
	if len(got) != len(want) {
		t.Fatalf("nodes = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("nodes = %v, want registration order %v", got, want)
		}
	}
	if _, ok := g.Blocks[0].Nodes[0].(*ast.DeferStmt); !ok {
		t.Errorf("defer must be recorded as the DeferStmt itself, got %T", g.Blocks[0].Nodes[0])
	}
}

// TestSelectWithDefault verifies the non-blocking select shape: every comm
// clause AND the default clause are successors, and code after the select
// is reachable through each.
func TestSelectWithDefault(t *testing.T) {
	_, g := parseBody(t, `
select {
case <-ch:
	recv()
default:
	fallback()
}
after()`)
	reach := reachable(g)
	saw := map[string]bool{}
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			name := firstIdent(n)
			if name == "recv" || name == "fallback" || name == "after" {
				saw[name] = saw[name] || reach[b.Index]
			}
		}
	}
	for _, name := range []string{"recv", "fallback", "after"} {
		if !saw[name] {
			t.Errorf("%s must be reachable in select-with-default:\n%s", name, g)
		}
	}
}

// TestForwardBudgetPanic locks the non-convergence backstop: a widening
// lattice (Equal always false) on a loop must hit the iteration budget
// and panic rather than spin forever.
func TestForwardBudgetPanic(t *testing.T) {
	_, g := parseBody(t, "for {\n\tspin()\n}")
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected the dataflow budget panic, got none")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "did not converge") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	Forward(g, Flow{
		Entry:    func() any { return 0 },
		Transfer: func(b *Block, in any) any { return in.(int) + 1 }, // ever-growing
		Meet:     func(a, b any) any { return a.(int) + b.(int) },
		Equal:    func(a, b any) bool { return false }, // widening: never stable
	})
}

// TestStringRendering pins the debug format loosely.
func TestStringRendering(t *testing.T) {
	_, g := parseBody(t, "a := 1\n_ = a")
	s := g.String()
	if !strings.HasPrefix(s, "b0[2]") {
		t.Errorf("unexpected String() output: %q", s)
	}
}

// reachable reports, per block index, whether the block is reachable from
// the entry.
func reachable(g *Graph) []bool {
	seen := make([]bool, len(g.Blocks))
	if len(g.Blocks) == 0 {
		return seen
	}
	stack := []*Block{g.Blocks[0]}
	seen[0] = true
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range b.Succs {
			if !seen[s.Index] {
				seen[s.Index] = true
				stack = append(stack, s)
			}
		}
	}
	return seen
}
