package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	Path  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	allow allowIndex // lazily built, shared by every analyzer pass
}

// allowIdx returns the package's annotation index, building it on first
// use. Sharing one index across all analyzer passes is what lets the
// -staleallow sweep see which entries an entire run left unused.
func (p *Package) allowIdx() allowIndex {
	if p.allow == nil {
		p.allow = buildAllowIndex(p.Fset, p.Files)
	}
	return p.allow
}

// Loader resolves package patterns with `go list` and type-checks the
// matched packages. All packages share one FileSet and one source importer,
// so imported dependencies (including the standard library, compiled from
// source — the toolchain ships no export data) are checked once and cached.
type Loader struct {
	fset *token.FileSet
	imp  types.Importer
	// extra overlays the importer with explicitly registered packages,
	// keyed by import path. The analysistest harness registers checked
	// testdata packages here so fixtures can import each other under
	// GOPATH-style paths the source importer cannot resolve.
	extra map[string]*types.Package
}

// NewLoader returns a Loader with a fresh FileSet and importer.
func NewLoader() *Loader {
	fset := token.NewFileSet()
	return &Loader{fset: fset, imp: importer.ForCompiler(fset, "source", nil)}
}

// RegisterPackage makes an already-checked package importable by
// subsequent type-checks under its path, shadowing the source importer.
func (l *Loader) RegisterPackage(p *types.Package) {
	if l.extra == nil {
		l.extra = map[string]*types.Package{}
	}
	l.extra[p.Path()] = p
}

// Import implements types.Importer: registered packages first, then the
// source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if p, ok := l.extra[path]; ok {
		return p, nil
	}
	return l.imp.Import(path)
}

// ImportFrom implements types.ImporterFrom so vendor-style resolution in
// the underlying source importer keeps working.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if p, ok := l.extra[path]; ok {
		return p, nil
	}
	if from, ok := l.imp.(types.ImporterFrom); ok {
		return from.ImportFrom(path, dir, mode)
	}
	return l.imp.Import(path)
}

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Imports    []string
	Error      *struct{ Err string }
}

// Load resolves patterns (e.g. "./...", "nontree/internal/core") relative
// to dir (the process working directory when dir is empty) and returns the
// type-checked packages in dependency order: every package appears after
// the packages it imports (ties broken by `go list` order), so every run
// visits them in the same order. Only non-test GoFiles are analyzed: the
// contracts gate the algorithms themselves; tests are free to use wall
// clocks and ad-hoc comparisons.
func (l *Loader) Load(dir string, patterns ...string) ([]*Package, error) {
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	listed = topoSort(listed)
	pkgs := make([]*Package, 0, len(listed))
	for _, lp := range listed {
		if len(lp.GoFiles) == 0 {
			continue
		}
		p, err := l.check(*lp)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// CheckDir parses and type-checks every non-test .go file directly inside
// dir as a single package with the given import path. The analysistest
// harness uses this to load testdata packages that `go list` cannot see.
func (l *Loader) CheckDir(dir, importPath string) (*Package, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	var files []string
	for _, m := range matches {
		if !strings.HasSuffix(m, "_test.go") {
			files = append(files, filepath.Base(m))
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	return l.check(listedPackage{ImportPath: importPath, Dir: dir, GoFiles: files})
}

func (l *Loader) check(lp listedPackage) (*Package, error) {
	files := make([]*ast.File, 0, len(lp.GoFiles))
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: parsing %s: %w", name, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	var softErrs []error
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { softErrs = append(softErrs, err) },
	}
	tpkg, err := conf.Check(lp.ImportPath, l.fset, files, info)
	if err != nil && len(softErrs) > 0 {
		err = softErrs[0]
	}
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", lp.ImportPath, err)
	}
	return &Package{
		Path:  lp.ImportPath,
		Dir:   lp.Dir,
		Fset:  l.fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}, nil
}

// topoSort orders packages so imports precede importers: a depth-first
// post-order over the listed set, seeded in `go list` order so the result
// is deterministic. Imports outside the listed set are ignored. `go list` has already rejected
// import cycles, so the recursion terminates.
func topoSort(listed []*listedPackage) []*listedPackage {
	byPath := make(map[string]*listedPackage, len(listed))
	for _, lp := range listed {
		byPath[lp.ImportPath] = lp
	}
	seen := make(map[string]bool, len(listed))
	out := make([]*listedPackage, 0, len(listed))
	var visit func(lp *listedPackage)
	visit = func(lp *listedPackage) {
		if seen[lp.ImportPath] {
			return
		}
		seen[lp.ImportPath] = true
		for _, imp := range lp.Imports {
			if dep, ok := byPath[imp]; ok {
				visit(dep)
			}
		}
		out = append(out, lp)
	}
	for _, lp := range listed {
		visit(lp)
	}
	return out
}

// goList shells out to `go list -json` and decodes the package stream.
func goList(dir string, patterns []string) ([]*listedPackage, error) {
	args := append([]string{"list", "-json=ImportPath,Dir,GoFiles,Imports,Error", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go list %s: %v\n%s",
			strings.Join(patterns, " "), err, stderr.String())
	}
	dec := json.NewDecoder(bytes.NewReader(stdout))
	var out []*listedPackage
	for {
		var lp listedPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analysis: decoding go list output: %w", err)
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("analysis: go list: %s", lp.Error.Err)
		}
		out = append(out, &lp)
	}
	return out, nil
}
