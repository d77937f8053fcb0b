// Package nondetsource forbids sources of nondeterminism inside the
// algorithm packages: wall-clock reads, math/rand, and GOMAXPROCS- or
// CPU-count-dependent logic. The repository guarantees that every
// algorithm produces byte-identical results for any Options.Workers value
// (DESIGN.md §7); a clock read, an unseeded random draw, or a decision
// keyed on the machine's core count silently voids that guarantee.
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
// whose reduction is order-independent, and the confined clock readers in
// internal/obs (span.go) and internal/trace (ring.go) whose readings only
// ever reach determinism-excluded sections — carry
// //nontree:allow nondetsource <justification> annotations.
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
		"in algorithm packages",
	Scope: []string{
		"nontree", // root façade package
		"nontree/sta",
		"internal/core",
		"internal/ert",
		"internal/steiner",
		"internal/pdtree",
		"internal/graph",
		"internal/geom",
		"internal/mst",
		"internal/elmore",
		"internal/spice",
		"internal/linalg",
		// The workspace cache behind linalg's and elmore's factorizations
		// is in scope so its GOMAXPROCS read stays annotated: the count
		// only bounds how many idle workspaces are kept.
		"internal/scratch",
		"internal/rc",
		"internal/stats",
		"internal/netlist",
		"internal/expt",
		"internal/embed",
		"internal/viz",
		// The observability layer is in scope so the clock stays confined:
		// obs/span.go and trace/ring.go are the only annotated readers, and
		// everything they capture lands in sections (Timings, Event.Elapsed)
		// that the determinism comparisons exclude (DESIGN.md §10, §11).
		"internal/obs",
		"internal/trace",
		// The wide-event log is in scope so events stay clock-free at the
		// package level: every timing an olog.Event carries is stamped by
		// serve through the obs stopwatch, and the deterministic projection
		// (Event.Deterministic) excludes those fields (DESIGN.md §16).
		"internal/olog",
		// The bounded ring behind both is in scope so it stays clock-free:
		// trace stamps Elapsed in its own ring.go, through the stamp
		// function it hands the generic ring.
		"internal/ring",
		// The line codec both encode through is in scope so the canonical
		// bytes stay a pure function of the event.
		"internal/jsonl",
		// The workload simulator is in scope so its generation side stays a
		// pure function of the spec seed: sim's math/rand import carries the
		// seeded-stream justification, and the driver reads the clock only
		// through the sanctioned obs.Span/obs.Stopwatch helpers.
		"internal/sim",
	},
	Run: run,
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
