package analysis

import (
	"os/exec"
	"strings"
	"testing"
)

// TestDeterministicScopeCoversSinkClosure fails when an in-module package
// that a deterministic result can reach is missing from
// DeterministicScope. The sinks are the packages whose exported results
// the determinism contract covers; everything they import, directly or
// not, can feed those results, so a new import cannot carry a map range or
// a clock read past detordering and nondetsource unnoticed.
func TestDeterministicScopeCoversSinkClosure(t *testing.T) {
	sinks := []string{
		"nontree",
		"nontree/internal/core",
		"nontree/internal/ert",
		"nontree/internal/steiner",
		"nontree/internal/pdtree",
		"nontree/internal/graph",
		"nontree/internal/expt",
	}
	out, err := exec.Command("go", append([]string{"list", "-deps"}, sinks...)...).Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	scope := &Analyzer{Name: "scope", Scope: DeterministicScope}
	for _, path := range strings.Fields(string(out)) {
		if path != "nontree" && !strings.HasPrefix(path, "nontree/") {
			continue
		}
		if !scope.InScope(path) {
			t.Errorf("%s can reach a deterministic result but is missing from DeterministicScope", path)
		}
	}
}
