// Package analysis is a dependency-free static-analysis framework modeled
// on golang.org/x/tools/go/analysis, specialized for this repository's
// determinism and oracle thread-safety contracts (DESIGN.md §7–§8).
//
// The upstream framework is deliberately not imported: the module carries
// zero third-party dependencies, so the subset needed here — an Analyzer
// value, a per-package Pass with type information, a diagnostic sink with
// an annotation-based allowlist, a `go list`-driven loader, and an
// analysistest-style harness — is reimplemented on the standard library
// (go/ast, go/types, go/importer). The Analyzer/Pass shapes mirror the
// upstream API closely enough that migrating to x/tools later is a
// mechanical change.
//
// # Annotation allowlist
//
// A diagnostic is suppressed when the flagged line, or the line directly
// above it, carries a comment of the form
//
//	//nontree:allow <analyzer> <justification>
//
// The justification is mandatory: an annotation without one does not
// suppress anything, so every exemption in the tree documents *why* the
// contract holds anyway. DESIGN.md §8 lists the sanctioned exemptions.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and annotations.
	Name string
	// Doc is a one-paragraph description of the contract enforced.
	Doc string
	// Run executes the check against one package, reporting findings via
	// pass.Report or pass.Reportf.
	Run func(pass *Pass) error
	// Scope restricts which packages the driver applies the analyzer to:
	// a package is in scope when its import path equals an entry or ends
	// with "/"+entry. An empty Scope means every package. The analysistest
	// harness ignores Scope — testdata packages exercise the check
	// directly.
	Scope []string
}

// InScope reports whether the analyzer applies to the given import path.
func (a *Analyzer) InScope(path string) bool {
	if len(a.Scope) == 0 {
		return true
	}
	for _, s := range a.Scope {
		if path == s || strings.HasSuffix(path, "/"+s) {
			return true
		}
	}
	return false
}

// Pass carries one package's syntax and type information through an
// Analyzer.Run invocation.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// Facts is the analyzer's cross-package fact store for this run. The
	// driver hands every package of one Run the same store (in dependency
	// order), so facts exported while analyzing a package are visible when
	// its importers are analyzed. Never nil.
	Facts *Facts

	allow      allowIndex
	report     func(Diagnostic)
	suppressed func(Diagnostic)
}

// Diagnostic is one finding, positioned in the analyzed source.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Report emits a diagnostic at pos unless an annotation allowlists it, in
// which case the suppressed sink (if the driver installed one) records it
// instead — that is how -json surfaces allowlisted findings with
// "suppressed": true.
func (p *Pass) Report(pos token.Pos, msg string) {
	position := p.Fset.Position(pos)
	d := Diagnostic{Pos: position, Analyzer: p.Analyzer.Name, Message: msg}
	if p.allow.allows(position.Filename, position.Line, p.Analyzer.Name) {
		if p.suppressed != nil {
			p.suppressed(d)
		}
		return
	}
	p.report(d)
}

// Reportf is Report with fmt.Sprintf formatting.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(pos, fmt.Sprintf(format, args...))
}

// Allowed reports whether an annotation at pos (or the line above it)
// suppresses this pass's analyzer. Report already consults the diagnostic's
// own position; analyzers whose finding sits inside a larger construct (a
// loop body, say) use Allowed to honor annotations on the construct's
// opening line as well.
func (p *Pass) Allowed(pos token.Pos) bool {
	position := p.Fset.Position(pos)
	return p.allow.allows(position.Filename, position.Line, p.Analyzer.Name)
}

// TypeOf returns the type of e, or nil when unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// AllowDirective is the comment prefix that suppresses a diagnostic.
const AllowDirective = "nontree:allow"

// allowEntry is one parsed //nontree:allow annotation. used is set when the
// entry suppresses (or an analyzer probes and honors) a diagnostic, which is
// what the -staleallow sweep keys on: entries an entire run never marks are
// rot.
type allowEntry struct {
	analyzer      string
	justification string
	line          int
	used          bool
}

// allowIndex maps filename → line → annotations on that line. Entries are
// pointers so usage marks aggregate across every analyzer sharing one
// Package's index.
type allowIndex map[string]map[int][]*allowEntry

// allows reports whether a diagnostic from analyzer at file:line is
// suppressed by an annotation on that line or the line above it, marking
// the matching entry used.
func (ai allowIndex) allows(file string, line int, analyzer string) bool {
	lines := ai[file]
	if lines == nil {
		return false
	}
	for _, l := range [2]int{line, line - 1} {
		for _, e := range lines[l] {
			if e.analyzer == analyzer && e.justification != "" {
				e.used = true
				return true
			}
		}
	}
	return false
}

// buildAllowIndex scans every comment in the files for allow annotations.
func buildAllowIndex(fset *token.FileSet, files []*ast.File) allowIndex {
	ai := allowIndex{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//"+AllowDirective)
				if !ok {
					continue
				}
				fields := strings.Fields(text)
				if len(fields) == 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				entry := &allowEntry{
					analyzer:      fields[0],
					justification: strings.Join(fields[1:], " "),
					line:          pos.Line,
				}
				if ai[pos.Filename] == nil {
					ai[pos.Filename] = map[int][]*allowEntry{}
				}
				ai[pos.Filename][pos.Line] = append(ai[pos.Filename][pos.Line], entry)
			}
		}
	}
	return ai
}

// RunAnalyzerFacts executes one analyzer over a loaded package with a
// caller-supplied fact store (nil = a fresh one), letting a driver share
// one store across the packages of a run. It returns the diagnostics
// sorted by position.
func RunAnalyzerFacts(a *Analyzer, pkg *Package, facts *Facts) ([]Diagnostic, error) {
	if facts == nil {
		facts = NewFacts()
	}
	var out []Diagnostic
	pass := &Pass{
		Analyzer: a,
		Fset:     pkg.Fset,
		Files:    pkg.Files,
		Pkg:      pkg.Types,
		Info:     pkg.Info,
		Facts:    facts,
		allow:    pkg.allowIdx(),
		report:   func(d Diagnostic) { out = append(out, d) },
	}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.Path, err)
	}
	SortDiagnostics(out)
	return out, nil
}

// SortDiagnostics orders diagnostics by file, line, column, analyzer.
func SortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// RootIdent unwraps selector, index, star, paren and slice expressions to
// the base identifier of an lvalue chain: o.buf[i] → o, (*p).x → p. It
// returns nil when the chain does not bottom out in an identifier (e.g. a
// function call result).
func RootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// IsPkgCall reports whether call is a selector call pkg.fn where pkg is an
// import of pkgPath and fn is one of names. It resolves the package through
// type information, so renamed imports are handled.
func IsPkgCall(info *types.Info, call *ast.CallExpr, pkgPath string, names ...string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok || pn.Imported().Path() != pkgPath {
		return false
	}
	for _, n := range names {
		if sel.Sel.Name == n {
			return true
		}
	}
	return false
}
