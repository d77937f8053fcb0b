package analysis

// DeterministicScope lists the packages whose code can reach a
// deterministic result: the root façade, the algorithm packages (core,
// ert, steiner, pdtree, graph, expt) and every in-module package they
// import, directly or not. detordering and nondetsource both use it as
// their Scope, so a map-order, clock, math/rand or core-count source is
// reported where it is born in any package a result can reach, whatever
// call chain carries it there. TestDeterministicScopeCoversSinkClosure
// fails when that import closure outgrows the list.
var DeterministicScope = []string{
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
	// The daemon is in scope because the workload simulator drives it in
	// process, so expt reaches it through sim: a /route reply carries the
	// Result the library returns, and the deterministic projection of its
	// wide event is compared across Workers values (DESIGN.md §16).
	"internal/serve",
}
