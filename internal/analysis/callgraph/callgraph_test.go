package callgraph_test

import (
	"go/ast"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"nontree/internal/analysis"
	"nontree/internal/analysis/callgraph"
)

// buildFixture loads testdata/src/cgdep then testdata/src/cg (dependency
// order, mirroring the real driver) and returns the cg package's graph
// plus the shared fact store.
func buildFixture(t *testing.T) (*callgraph.Graph, *analysis.Facts) {
	t.Helper()
	loader := analysis.NewLoader()
	facts := analysis.NewFacts()
	var g *callgraph.Graph
	probe := &analysis.Analyzer{
		Name: "cgprobe",
		Doc:  "captures the call graph",
		Run: func(pass *analysis.Pass) error {
			g = callgraph.Build(pass)
			return nil
		},
	}
	for _, name := range []string{"cgdep", "cg"} {
		dir := filepath.Join("testdata", "src", name)
		pkg, err := loader.CheckDir(dir, name)
		if err != nil {
			t.Fatalf("loading %s: %v", name, err)
		}
		loader.RegisterPackage(pkg.Types)
		if _, err := analysis.RunAnalyzerFacts(probe, pkg, facts); err != nil {
			t.Fatalf("building graph for %s: %v", name, err)
		}
	}
	if g == nil {
		t.Fatal("no graph captured")
	}
	return g, facts
}

// targetsOf flattens a node's resolved targets, sorted and deduplicated.
func targetsOf(n *callgraph.Node) []string {
	seen := map[string]bool{}
	for _, c := range n.Calls {
		for _, id := range c.Targets {
			seen[id] = true
		}
	}
	out := make([]string, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

func TestStaticAndCrossPackageCalls(t *testing.T) {
	g, _ := buildFixture(t)
	n := g.Lookup("cg.static")
	if n == nil {
		t.Fatal("no node for cg.static")
	}
	want := []string{"cgdep.Helper"}
	if got := targetsOf(n); !reflect.DeepEqual(got, want) {
		t.Errorf("cg.static targets = %v, want %v", got, want)
	}
}

func TestConcreteMethodCall(t *testing.T) {
	g, _ := buildFixture(t)
	n := g.Lookup("cg.concrete")
	want := []string{"cg.(Local).Do"}
	if got := targetsOf(n); !reflect.DeepEqual(got, want) {
		t.Errorf("cg.concrete targets = %v, want %v", got, want)
	}
}

func TestInterfaceResolvesToAllImplementers(t *testing.T) {
	g, _ := buildFixture(t)
	n := g.Lookup("cg.viaIface")
	if n == nil {
		t.Fatal("no node for cg.viaIface")
	}
	// Both the in-package Local and the cross-package cgdep.Impl satisfy
	// Doer; resolution must be conservative and find both.
	want := []string{"cg.(Local).Do", "cgdep.(Impl).Do"}
	if got := targetsOf(n); !reflect.DeepEqual(got, want) {
		t.Errorf("cg.viaIface targets = %v, want %v", got, want)
	}
}

func TestLiteralsAndValues(t *testing.T) {
	g, _ := buildFixture(t)
	n := g.Lookup("cg.literals")
	if n == nil {
		t.Fatal("no node for cg.literals")
	}
	got := targetsOf(n)
	for _, want := range []string{
		"cg.literals$1", // invoked at definition
		"cg.literals$2", // via local f
		"cg.static",     // via local g (named function value)
		"cg.(Local).Do", // via local h (method value)
		"cg.literals$3", // escaping literal: implicit edge
		"cg.literals$4", // go func(){...}()
		"cg.literals$5", // defer func(){...}()
		"cg.sink",
	} {
		found := false
		for _, id := range got {
			if id == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("cg.literals targets missing %s (got %v)", want, got)
		}
	}
	// The go call site must be flagged, and the escaping literal's
	// implicit edge sits at the literal itself.
	var goSeen, implicitSeen bool
	for _, c := range n.Calls {
		if c.Go {
			goSeen = true
		}
		if _, ok := c.Site.(*ast.FuncLit); ok {
			implicitSeen = true
		}
	}
	if !goSeen || !implicitSeen {
		t.Errorf("edges missing: go=%v implicit=%v", goSeen, implicitSeen)
	}
	// Every literal got its own node.
	for i := 1; i <= 5; i++ {
		if g.Lookup("cg.literals$"+string(rune('0'+i))) == nil {
			t.Errorf("no node for cg.literals$%d", i)
		}
	}
}

func TestMethodSetFactsExported(t *testing.T) {
	_, facts := buildFixture(t)
	var ms map[string]string
	if !facts.Import(callgraph.MethodSetFactPrefix+"cgdep.Impl", &ms) {
		t.Fatal("no method-set fact for cgdep.Impl")
	}
	if ms["Do"] != "cgdep.(Impl).Do" {
		t.Errorf("cgdep.Impl method set = %v", ms)
	}
	if !facts.Import(callgraph.MethodSetFactPrefix+"cg.Local", &ms) {
		t.Fatal("no method-set fact for cg.Local")
	}
	// Value-receiver methods must appear too (method set of *Local).
	if ms["Other"] != "cg.(Local).Other" || ms["Do"] != "cg.(Local).Do" {
		t.Errorf("cg.Local method set = %v", ms)
	}
}

func TestSCCsCalleeFirstAndMergedCycle(t *testing.T) {
	g, _ := buildFixture(t)
	sccs := g.SCCs()
	pos := map[string]int{}
	var evenOddComp []*callgraph.Node
	for i, comp := range sccs {
		for _, n := range comp {
			pos[n.ID] = i
			if n.ID == "cg.even" || n.ID == "cg.odd" {
				evenOddComp = comp
			}
		}
	}
	if len(evenOddComp) != 2 {
		t.Fatalf("even/odd SCC has %d members, want 2", len(evenOddComp))
	}
	// Callee-first: cg.static precedes cg.literals (which calls it), and
	// every literal precedes its caller.
	if pos["cg.static"] >= pos["cg.literals"] {
		t.Errorf("cg.static (comp %d) not before cg.literals (comp %d)",
			pos["cg.static"], pos["cg.literals"])
	}
	if pos["cg.sink"] >= pos["cg.literals"] {
		t.Errorf("cg.sink not before cg.literals")
	}
}

func TestSummarizeFixpointOverRecursion(t *testing.T) {
	g, _ := buildFixture(t)
	// Summary: the set of node IDs transitively reachable (within the
	// package), as a sorted slice — a finite lattice whose fixpoint over
	// the even/odd cycle must include both members in both summaries.
	sum := callgraph.Summarize(g, callgraph.Summarizer[[]string]{
		Bottom: func(n *callgraph.Node) []string { return nil },
		Transfer: func(n *callgraph.Node, callee func(string) ([]string, bool)) []string {
			seen := map[string]bool{}
			for _, c := range n.Calls {
				for _, t := range c.Targets {
					seen[t] = true
					if sub, ok := callee(t); ok {
						for _, id := range sub {
							seen[id] = true
						}
					}
				}
			}
			out := make([]string, 0, len(seen))
			for id := range seen {
				out = append(out, id)
			}
			sort.Strings(out)
			return out
		},
		Equal: func(a, b []string) bool { return reflect.DeepEqual(a, b) },
	})
	evenReach := sum["cg.even"]
	wantBoth := 0
	for _, id := range evenReach {
		if id == "cg.even" || id == "cg.odd" {
			wantBoth++
		}
	}
	if wantBoth != 2 {
		t.Errorf("cg.even reachability = %v, want to include cg.even and cg.odd", evenReach)
	}
	// literals reaches cgdep.Helper transitively through cg.static.
	found := false
	for _, id := range sum["cg.literals"] {
		if id == "cgdep.Helper" {
			found = true
		}
	}
	if !found {
		t.Errorf("cg.literals reachability %v missing cgdep.Helper", sum["cg.literals"])
	}
}

func TestSummarizeNonConvergencePanics(t *testing.T) {
	g, _ := buildFixture(t)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic from widening summarizer")
		}
	}()
	// A deliberately widening lattice: the summary grows every Transfer,
	// so the even/odd SCC can never reach fixpoint and must hit the
	// iteration budget.
	callgraph.Summarize(g, callgraph.Summarizer[int]{
		Bottom:   func(n *callgraph.Node) int { return 0 },
		Transfer: func(n *callgraph.Node, callee func(string) (int, bool)) int { return 1 },
		Equal:    func(a, b int) bool { return false },
	})
}

func TestDeterministicRebuild(t *testing.T) {
	g1, _ := buildFixture(t)
	g2, _ := buildFixture(t)
	if len(g1.Nodes) != len(g2.Nodes) {
		t.Fatalf("node counts differ: %d vs %d", len(g1.Nodes), len(g2.Nodes))
	}
	for i := range g1.Nodes {
		if g1.Nodes[i].ID != g2.Nodes[i].ID {
			t.Fatalf("node %d: %s vs %s", i, g1.Nodes[i].ID, g2.Nodes[i].ID)
		}
		if !reflect.DeepEqual(targetsOf(g1.Nodes[i]), targetsOf(g2.Nodes[i])) {
			t.Errorf("node %s targets differ across rebuilds", g1.Nodes[i].ID)
		}
	}
}
