package analysis

import (
	"fmt"
	"io"
	"sort"
)

// StaleAllow is one //nontree:allow annotation that cannot be suppressing
// anything: its analyzer is unknown, it lacks the mandatory justification,
// the named analyzer never runs on its package, or the analyzer ran and
// reported nothing the entry had to absorb. Stale entries are rot — the
// contract they document an exemption from is no longer (or never was)
// violated there — and nontree-lint -staleallow fails on them.
type StaleAllow struct {
	File     string
	Line     int
	Analyzer string
	Reason   string
}

func (s StaleAllow) String() string {
	return fmt.Sprintf("%s:%d: stale //nontree:allow %s: %s", s.File, s.Line, s.Analyzer, s.Reason)
}

// Result is the full outcome of a RunAudit: unsuppressed diagnostics,
// the findings //nontree:allow annotations absorbed, the annotations that
// absorbed nothing, and how many packages were analyzed. It is the single
// source for nontree-lint's text, -json, and -annotations outputs.
type Result struct {
	// Diags are the unsuppressed diagnostics, sorted by position.
	Diags []Diagnostic
	// Suppressed are diagnostics an annotation absorbed, sorted.
	Suppressed []Diagnostic
	// Stale are the annotations that suppress nothing, sorted.
	Stale []StaleAllow
	// Packages is the number of packages loaded and analyzed.
	Packages int
}

// RunAudit loads the packages matched by patterns (resolved in dir, or the
// working directory when dir is empty) and applies every analyzer whose
// Scope matches each package, in dependency order (Loader.Load), which is
// what makes cross-package fact propagation sound. facts[name] is the store
// handed to the analyzer of that name for every package (missing entries
// are created), so callers can inspect or persist what an analyzer
// exported. After the run it sweeps every //nontree:allow annotation for
// staleness. Unsuppressed diagnostics are printed to w; everything else is
// only returned. A non-nil error reports an operational failure
// (unparseable source, type errors, go list failure) — not findings.
func RunAudit(w io.Writer, dir string, analyzers []*Analyzer, facts map[string]*Facts, patterns ...string) (Result, error) {
	loader := NewLoader()
	pkgs, err := loader.Load(dir, patterns...)
	if err != nil {
		return Result{}, err
	}
	if facts == nil {
		facts = map[string]*Facts{}
	}
	for _, a := range analyzers {
		if facts[a.Name] == nil {
			facts[a.Name] = NewFacts()
		}
	}
	res := Result{Packages: len(pkgs)}
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if !a.InScope(pkg.Path) {
				continue
			}
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				Facts:    facts[a.Name],
				allow:    pkg.allowIdx(),
				report:   func(d Diagnostic) { res.Diags = append(res.Diags, d) },
				suppressed: func(d Diagnostic) {
					res.Suppressed = append(res.Suppressed, d)
				},
			}
			if err := a.Run(pass); err != nil {
				return Result{}, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	SortDiagnostics(res.Diags)
	SortDiagnostics(res.Suppressed)
	for _, d := range res.Diags {
		fmt.Fprintln(w, d)
	}
	res.Stale = staleAllows(pkgs, analyzers)
	return res, nil
}

// staleAllows sweeps the allow indexes the run populated. It must run
// after every analyzer has been applied to every package — usage marks
// accumulate on the shared per-package index.
func staleAllows(pkgs []*Package, analyzers []*Analyzer) []StaleAllow {
	known := make(map[string]*Analyzer, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = a
	}
	var out []StaleAllow
	for _, pkg := range pkgs {
		for file, lines := range pkg.allowIdx() {
			for _, entries := range lines {
				for _, e := range entries {
					reason := ""
					switch a, ok := known[e.analyzer]; {
					case e.justification == "":
						reason = "missing justification, so it suppresses nothing"
					case !ok:
						reason = "no analyzer by that name in this run"
					case !a.InScope(pkg.Path):
						reason = fmt.Sprintf("analyzer is not in scope for %s", pkg.Path)
					case !e.used:
						reason = "matches no diagnostic"
					}
					if reason != "" {
						out = append(out, StaleAllow{
							File:     file,
							Line:     e.line,
							Analyzer: e.analyzer,
							Reason:   reason,
						})
					}
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}
