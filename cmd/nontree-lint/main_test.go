package main

import (
	"encoding/json"
	"go/token"
	"strings"
	"testing"

	"nontree/internal/analysis"
)

// TestRepositoryIsClean runs the full multichecker over every package in
// the module and asserts zero diagnostics and zero stale allows, locking
// the tree's clean state: any new map-ordering, oracle-mutation,
// nondeterminism-source, float-equality, unit-mismatch, lock-discipline,
// goroutine-leak, stale-probe, or metric-name site fails this test (and
// the CI lint gate) until it is fixed or carries a justified
// //nontree:allow annotation — and an annotation that stops suppressing
// anything fails it again until removed.
func TestRepositoryIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short mode")
	}
	var out strings.Builder
	// The module-path pattern resolves from any working directory inside
	// the module, unlike "./..." which would only cover this command.
	res, err := analysis.RunAudit(&out, "", Analyzers, "nontree/...")
	if err != nil {
		t.Fatalf("running multichecker: %v", err)
	}
	if len(res.Diags) != 0 {
		t.Errorf("expected a clean tree, got %d finding(s):\n%s", len(res.Diags), out.String())
	}
	for _, s := range res.Stale {
		t.Errorf("stale annotation: %s", s.String())
	}
}

// TestAnalyzerRoster locks the suite composition: dropping an analyzer
// from the multichecker must be a deliberate, reviewed change.
func TestAnalyzerRoster(t *testing.T) {
	want := map[string]bool{
		"detordering":  true,
		"floatcmp":     true,
		"lockguard":    true,
		"nondetsource": true,
		"obsnames":     true,
	}
	if len(Analyzers) != len(want) {
		t.Fatalf("expected %d analyzers, got %d", len(want), len(Analyzers))
	}
	for _, a := range Analyzers {
		if !want[a.Name] {
			t.Errorf("unexpected analyzer %q", a.Name)
		}
		if a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %q is missing Doc or Run", a.Name)
		}
	}
	for i := 1; i < len(Analyzers); i++ {
		if Analyzers[i-1].Name >= Analyzers[i].Name {
			t.Errorf("registry order: %q before %q (must be sorted by name)",
				Analyzers[i-1].Name, Analyzers[i].Name)
		}
	}
}

// TestJSONDiagRoundTrip locks the -json wire shape consumed by CI
// tooling: field names are part of the interface.
func TestJSONDiagRoundTrip(t *testing.T) {
	d := analysis.Diagnostic{
		Pos:      token.Position{Filename: "x.go", Line: 3, Column: 7},
		Analyzer: "detordering",
		Message:  "boom",
	}
	b, err := json.Marshal(toJSONDiag(d, true))
	if err != nil {
		t.Fatal(err)
	}
	got := string(b)
	for _, want := range []string{`"file":"x.go"`, `"line":3`, `"col":7`, `"analyzer":"detordering"`, `"message":"boom"`, `"suppressed":true`} {
		if !strings.Contains(got, want) {
			t.Errorf("JSON %s missing %s", got, want)
		}
	}
	b, err = json.Marshal(toJSONDiag(d, false))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), "suppressed") {
		t.Errorf("unsuppressed diagnostic should omit the suppressed field: %s", b)
	}
}

// TestAnnotationEscaping locks the GitHub workflow-command escaping: a
// message containing newlines, percent signs, or command metacharacters
// must not break out of the ::error data section.
func TestAnnotationEscaping(t *testing.T) {
	var out strings.Builder
	res := analysis.Result{
		Diags: []analysis.Diagnostic{{
			Pos:      token.Position{Filename: "a,b.go", Line: 2, Column: 4},
			Analyzer: "lockguard",
			Message:  "first\nsecond 100%",
		}},
		Stale: []analysis.StaleAllow{{File: "c.go", Line: 9, Analyzer: "lockguard", Reason: "matches no diagnostic"}},
	}
	emitAnnotations(&out, res)
	got := out.String()
	want := "::error file=a%2Cb.go,line=2,col=4,title=lockguard::first%0Asecond 100%25\n" +
		"::error file=c.go,line=9,title=stale-allow::stale //nontree:allow lockguard: matches no diagnostic\n"
	if got != want {
		t.Errorf("annotations:\n got %q\nwant %q", got, want)
	}
}
