// Package registry is the single source of truth for the analyzer suite:
// the multichecker binary, its repository-cleanliness integration test,
// and the -staleallow audit all consume the same roster, so an analyzer
// added (or removed) here is added everywhere at once — there is no way
// for the CI gate and the test to disagree about what "the suite" means.
package registry

import (
	"nontree/internal/analysis"
	"nontree/internal/analysis/detordering"
	"nontree/internal/analysis/floatcmp"
	"nontree/internal/analysis/lockguard"
	"nontree/internal/analysis/nondetsource"
	"nontree/internal/analysis/obsnames"
)

// suite is the full roster, kept sorted by name.
var suite = []*analysis.Analyzer{
	detordering.Analyzer,
	floatcmp.Analyzer,
	lockguard.Analyzer,
	nondetsource.Analyzer,
	obsnames.Analyzer,
}

// Analyzers returns the multichecker suite in report (name) order. The
// returned slice is a copy; callers may reorder or filter it freely.
func Analyzers() []*analysis.Analyzer {
	out := make([]*analysis.Analyzer, len(suite))
	copy(out, suite)
	return out
}
