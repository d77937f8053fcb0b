package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

func TestInScope(t *testing.T) {
	a := &Analyzer{Name: "x", Scope: []string{"internal/core", "nontree"}}
	cases := []struct {
		path string
		want bool
	}{
		{"nontree/internal/core", true},
		{"nontree", true},
		{"internal/core", true},
		{"nontree/internal/coreextra", false},
		{"nontree/internal/ert", false},
		{"other/internal/core", true}, // suffix match is intentional
	}
	for _, c := range cases {
		if got := a.InScope(c.path); got != c.want {
			t.Errorf("InScope(%q) = %v, want %v", c.path, got, c.want)
		}
	}
	all := &Analyzer{Name: "y"}
	if !all.InScope("anything/at/all") {
		t.Error("empty scope must match every package")
	}
}

func TestRootIdent(t *testing.T) {
	cases := []struct {
		expr string
		want string
	}{
		{"x", "x"},
		{"o.buf", "o"},
		{"o.buf[i]", "o"},
		{"(*p).field", "p"},
		{"o.rows[0][1]", "o"},
		{"o.buf[1:2]", "o"},
		{"f().x", ""},
	}
	for _, c := range cases {
		e, err := parser.ParseExpr(c.expr)
		if err != nil {
			t.Fatalf("parsing %q: %v", c.expr, err)
		}
		id := RootIdent(e)
		got := ""
		if id != nil {
			got = id.Name
		}
		if got != c.want {
			t.Errorf("RootIdent(%q) = %q, want %q", c.expr, got, c.want)
		}
	}
}

const allowSrc = `package p

//nontree:allow detordering the reduction is a max over exact sentinels
var a int

//nontree:allow floatcmp
var b int

func f() {
	_ = a //nontree:allow purityflow same-line justification
	_ = b
}
`

func TestAllowIndex(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "allow.go", allowSrc, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	ai := buildAllowIndex(fset, []*ast.File{f})

	cases := []struct {
		line     int
		analyzer string
		want     bool
	}{
		{4, "detordering", true},  // annotation on line 3 covers line 4
		{3, "detordering", true},  // and line 3 itself
		{5, "detordering", false}, // but not line 5
		{4, "floatcmp", false},    // wrong analyzer
		{7, "floatcmp", false},    // no justification → no suppression
		{10, "purityflow", true},
		{11, "purityflow", true}, // an annotation also covers the following line
		{12, "purityflow", false},
	}
	for _, c := range cases {
		if got := ai.allows("allow.go", c.line, c.analyzer); got != c.want {
			t.Errorf("allows(line %d, %s) = %v, want %v", c.line, c.analyzer, got, c.want)
		}
	}
}

func TestSortDiagnostics(t *testing.T) {
	ds := []Diagnostic{
		{Pos: token.Position{Filename: "b.go", Line: 1}, Analyzer: "z"},
		{Pos: token.Position{Filename: "a.go", Line: 9}, Analyzer: "z"},
		{Pos: token.Position{Filename: "a.go", Line: 2, Column: 5}, Analyzer: "z"},
		{Pos: token.Position{Filename: "a.go", Line: 2, Column: 5}, Analyzer: "a"},
	}
	SortDiagnostics(ds)
	order := []string{"a", "z", "z", "z"}
	for i, want := range order {
		if ds[i].Analyzer != want {
			t.Fatalf("diagnostic %d: analyzer %s, want %s (%v)", i, ds[i].Analyzer, want, ds)
		}
	}
	if ds[3].Pos.Filename != "b.go" {
		t.Errorf("expected b.go last, got %v", ds[3])
	}
}
