// Package nondetsource forbids sources of nondeterminism in every package
// that can reach a deterministic result (analysis.DeterministicScope):
// wall-clock reads, math/rand, and GOMAXPROCS- or CPU-count-dependent
// logic. The repository guarantees that every algorithm produces
// byte-identical results for any Options.Workers value (DESIGN.md §7); a
// clock read, an unseeded random draw, or a decision keyed on the
// machine's core count silently voids that guarantee.
//
// Three constructs are reported:
//
//   - calls to time.Now, time.Since, or time.Until;
//   - any import of math/rand or math/rand/v2 — global-source calls
//     (rand.Intn, rand.Shuffle, ...) are inherently unseeded, and even
//     rand.New(rand.NewSource(seed)) needs a documented seeding discipline,
//     so the import itself must carry a justification;
//   - calls to runtime.GOMAXPROCS or runtime.NumCPU.
//
// Sanctioned uses — the seeded test-case generators in internal/netlist
// and internal/expt, the Workers:0 → one-goroutine-per-CPU resolution
// whose reduction is order-independent, serve's concurrency-limiter
// default, and the confined clock readers in internal/obs (span.go) and
// internal/trace (ring.go) whose readings only ever reach
// determinism-excluded sections — carry //nontree:allow nondetsource
// <justification> annotations.
package nondetsource

import (
	"go/ast"
	"strconv"

	"nontree/internal/analysis"
)

// Analyzer is the nondetsource check.
var Analyzer = &analysis.Analyzer{
	Name: "nondetsource",
	Doc: "forbid time.Now, math/rand, and GOMAXPROCS/NumCPU-dependent logic " +
		"in every package a deterministic result can reach",
	Scope: analysis.DeterministicScope,
	Run:   run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if path == "math/rand" || path == "math/rand/v2" {
				pass.Reportf(imp.Pos(),
					"import of %s in an algorithm package: random draws break "+
						"reproducibility; derive every stream from an explicit seed and "+
						"document it with //nontree:allow nondetsource <why>", path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch {
			case analysis.IsPkgCall(pass.Info, call, "time", "Now", "Since", "Until"):
				pass.Report(call.Pos(),
					"wall-clock read in an algorithm package: results must not depend "+
						"on when or how fast the code runs (DESIGN.md §8)")
			case analysis.IsPkgCall(pass.Info, call, "runtime", "GOMAXPROCS", "NumCPU"):
				pass.Report(call.Pos(),
					"GOMAXPROCS/NumCPU-dependent logic in an algorithm package: results "+
						"must be identical on any machine and any Workers setting; if the "+
						"value only sizes a worker pool with an order-independent "+
						"reduction, annotate //nontree:allow nondetsource <why>")
			}
			return true
		})
	}
	return nil
}
