package purityflow_test

import (
	"testing"

	"nontree/internal/analysis/analysistest"
	"nontree/internal/analysis/purityflow"
)

func TestDirectWrites(t *testing.T) {
	analysistest.Run(t, purityflow.Analyzer, "direct")
}

func TestLaunderedMutations(t *testing.T) {
	analysistest.Run(t, purityflow.Analyzer, "a")
}

func TestCrossPackageEffects(t *testing.T) {
	analysistest.Run(t, purityflow.Analyzer, "pfx")
}

func TestScopeIsGlobal(t *testing.T) {
	for _, path := range []string{"nontree", "nontree/internal/elmore", "nontree/cmd/nontree"} {
		if !purityflow.Analyzer.InScope(path) {
			t.Errorf("purityflow must apply everywhere; %s was out of scope", path)
		}
	}
}
