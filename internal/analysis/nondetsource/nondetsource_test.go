package nondetsource_test

import (
	"slices"
	"testing"

	"nontree/internal/analysis"
	"nontree/internal/analysis/analysistest"
	"nontree/internal/analysis/nondetsource"
)

func TestNondetSource(t *testing.T) {
	analysistest.Run(t, nondetsource.Analyzer, "a")
}

// TestScope pins nondetsource to the shared deterministic scope.
func TestScope(t *testing.T) {
	if !slices.Equal(nondetsource.Analyzer.Scope, analysis.DeterministicScope) {
		t.Fatalf("Scope = %v, want analysis.DeterministicScope", nondetsource.Analyzer.Scope)
	}
	for _, path := range []string{
		"nontree",
		"nontree/sta",
		"nontree/internal/core",
		"nontree/internal/netlist",
		"nontree/internal/expt",
		"nontree/internal/serve",
	} {
		if !nondetsource.Analyzer.InScope(path) {
			t.Errorf("expected %s in scope", path)
		}
	}
	// Benchmarks legitimately read the wall clock.
	for _, path := range []string{"nontree/cmd/nontree-bench", "nontree/examples/quickstart"} {
		if nondetsource.Analyzer.InScope(path) {
			t.Errorf("expected %s out of scope", path)
		}
	}
}
