// Package analysistest runs an analyzer over testdata packages and checks
// its diagnostics against `// want` comments, mirroring the upstream
// golang.org/x/tools/go/analysis/analysistest contract on the standard
// library alone.
//
// Expectations are written on the line they apply to:
//
//	for k := range m { // want `iteration over map`
//
// The text between backquotes (or double quotes) is a regular expression
// matched against the diagnostic message; one expectation per line. Lines
// with no want comment must produce no diagnostic, and every expectation
// must be matched by exactly one diagnostic.
//
// Fixtures may span packages: a testdata package that imports a sibling
// (e.g. `import "obs"` resolving to testdata/src/obs) gets it loaded,
// type-checked and analyzed first, in dependency order — so multi-file,
// multi-struct and cross-package fixtures work exactly like a real
// nontree-lint run. Want comments in dependency
// packages count too.
package analysistest

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"testing"

	"nontree/internal/analysis"
)

var wantRe = regexp.MustCompile("// want (`([^`]*)`|\"([^\"]*)\")")

// Run loads each testdata/src/<pkg> relative to the caller's directory
// (plus any sibling testdata packages they import, recursively),
// type-checks them, applies the analyzer to every loaded package in
// dependency order (ignoring its Scope), and verifies the combined diagnostics against the want comments of every
// loaded package.
func Run(t *testing.T, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	if len(pkgs) == 0 {
		t.Fatal("analysistest: no packages given")
	}
	_, callerFile, _, ok := runtime.Caller(1)
	if !ok {
		t.Fatal("analysistest: cannot locate caller to find testdata")
	}
	base := filepath.Join(filepath.Dir(callerFile), "testdata", "src")

	loader := analysis.NewLoader()
	loaded := map[string]*analysis.Package{}
	loading := map[string]bool{}
	var order []*analysis.Package
	var load func(pkg string)
	load = func(pkg string) {
		t.Helper()
		if loaded[pkg] != nil {
			return
		}
		if loading[pkg] {
			t.Fatalf("analysistest: import cycle through testdata package %s", pkg)
		}
		loading[pkg] = true
		dir := filepath.Join(base, pkg)
		for _, imp := range fixtureImports(t, dir) {
			if info, err := os.Stat(filepath.Join(base, imp)); err == nil && info.IsDir() {
				load(imp)
			}
		}
		p, err := loader.CheckDir(dir, pkg)
		if err != nil {
			t.Fatalf("analysistest: loading %s: %v", dir, err)
		}
		loader.RegisterPackage(p.Types)
		loaded[pkg] = p
		order = append(order, p)
	}
	for _, pkg := range pkgs {
		load(pkg)
	}

	var diags []analysis.Diagnostic
	for _, p := range order {
		ds, err := analysis.RunAnalyzer(a, p)
		if err != nil {
			t.Fatalf("analysistest: running %s on %s: %v", a.Name, p.Path, err)
		}
		diags = append(diags, ds...)
	}
	analysis.SortDiagnostics(diags)

	var wants []want
	for _, p := range order {
		wants = append(wants, collectWants(t, p)...)
	}
	matched := make([]bool, len(wants))
	for _, d := range diags {
		ok := false
		for i, w := range wants {
			if matched[i] || w.file != d.Pos.Filename || w.line != d.Pos.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				matched[i] = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

// fixtureImports parses the import clauses of every non-test Go file in
// dir, deduplicated in first-appearance order.
func fixtureImports(t *testing.T, dir string) []string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatalf("analysistest: scanning %s: %v", dir, err)
	}
	fset := token.NewFileSet()
	seen := map[string]bool{}
	var out []string
	for _, m := range matches {
		f, err := parser.ParseFile(fset, m, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatalf("analysistest: parsing imports of %s: %v", m, err)
		}
		for _, spec := range f.Imports {
			path, err := strconv.Unquote(spec.Path.Value)
			if err != nil || seen[path] {
				continue
			}
			seen[path] = true
			out = append(out, path)
		}
	}
	return out
}

type want struct {
	file string
	line int
	re   *regexp.Regexp
}

func collectWants(t *testing.T, pkg *analysis.Package) []want {
	t.Helper()
	var wants []want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pattern := m[2]
				if pattern == "" {
					pattern = m[3]
				}
				re, err := regexp.Compile(pattern)
				if err != nil {
					t.Fatalf("bad want pattern %q: %v", pattern, err)
				}
				pos := pkg.Fset.Position(c.Pos())
				wants = append(wants, want{file: pos.Filename, line: pos.Line, re: re})
			}
		}
	}
	return wants
}
