package detordering_test

import (
	"slices"
	"testing"

	"nontree/internal/analysis"
	"nontree/internal/analysis/analysistest"
	"nontree/internal/analysis/detordering"
)

func TestDetordering(t *testing.T) {
	analysistest.Run(t, detordering.Analyzer, "a")
}

// TestScope pins detordering to the shared deterministic scope, which
// reaches past the algorithm packages into the ones they import.
func TestScope(t *testing.T) {
	if !slices.Equal(detordering.Analyzer.Scope, analysis.DeterministicScope) {
		t.Fatalf("Scope = %v, want analysis.DeterministicScope", detordering.Analyzer.Scope)
	}
	for _, path := range []string{
		"nontree/internal/core",
		"nontree/internal/elmore",
		"nontree/internal/spice",
		"nontree/internal/embed",
		"nontree/internal/serve",
	} {
		if !detordering.Analyzer.InScope(path) {
			t.Errorf("expected %s in scope", path)
		}
	}
	for _, path := range []string{"nontree/cmd/nontree", "nontree/cmd/nontree-bench", "nontree/internal/analysis"} {
		if detordering.Analyzer.InScope(path) {
			t.Errorf("expected %s out of scope", path)
		}
	}
}
