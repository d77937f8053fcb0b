package unitcheck_test

import (
	"io"
	"testing"

	"nontree/internal/analysis"
	"nontree/internal/analysis/analysistest"
	"nontree/internal/analysis/unitcheck"
)

func TestUnitcheck(t *testing.T) {
	analysistest.Run(t, unitcheck.Analyzer, "a")
}

// TestRepositoryDimensionCoverage runs unitcheck over the physics packages
// rc, spice and elmore, after the geom, graph and linalg packages they
// build on (so those packages' facts propagate as in a whole-module run):
// they must be clean and must actually carry their contracts — at least
// 40 declarations with units, so the analyzer has something to check.
// Whole-module cleanliness is nontree-lint's TestRepositoryIsClean, which
// runs every analyzer.
func TestRepositoryDimensionCoverage(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the physics packages and their dependencies")
	}
	physics := []string{"nontree/internal/rc", "nontree/internal/spice", "nontree/internal/elmore"}
	facts := map[string]*analysis.Facts{}
	res, err := analysis.RunAudit(io.Discard, "", []*analysis.Analyzer{unitcheck.Analyzer}, facts,
		append([]string{"nontree/internal/geom", "nontree/internal/graph", "nontree/internal/linalg"}, physics...)...)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range res.Diags {
		t.Errorf("unexpected diagnostic: %s", d)
	}
	n := unitcheck.CountDeclaredDims(facts[unitcheck.Analyzer.Name], physics...)
	t.Logf("rc/spice/elmore declare %d dimensions", n)
	if n < 40 {
		t.Errorf("rc/spice/elmore declare %d dimensions, want >= 40", n)
	}
}
