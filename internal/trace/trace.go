// Package trace is the repository's structured execution-trace layer: a
// stream of typed, per-decision events emitted by the routing algorithms
// of package core, the only emitter, answering the question the
// aggregate counters of package obs cannot — *why* a specific edge was
// accepted or rejected, and in what order the search unfolded. The delay
// models below core (elmore, spice) do not import this package.
//
// The layer mirrors the obs contract (DESIGN.md §10–§11):
//
//   - Events are emitted only from deterministic program points. The
//     parallel candidate sweeps record objective values by candidate index
//     and emit candidate events *after* the deterministic reduction, in
//     canonical candidate order — never from worker goroutines. For a
//     fixed seed the deterministic fields of a trace are therefore
//     byte-identical at any Options.Workers value.
//   - Each event carries one nondeterministic field, Elapsed (wall-clock
//     seconds since the tracer started), stamped by the Ring tracer.
//     Event.Deterministic drops it; every determinism comparison and the
//     replay differ work on the deterministic projection.
//   - The canonical JSONL encoding (see event.go) renders floats as hex
//     literals and omits zero-valued fields, so encode→decode→encode is
//     byte-identical and a fingerprint match is a bitwise match.
//
// Package core observes only the Tracer interface; the no-op Nop
// is the default everywhere a tracer is optional, so the cost of not
// tracing is a nil check. The standard implementation is Ring, a bounded
// ring buffer that keeps the most recent events and counts what it
// dropped.
package trace

// Tracer receives execution events from instrumented code. Emit is called
// only from deterministic, single-goroutine program points (seed scoring,
// post-reduction sweep replay, commit paths), so implementations see a
// reproducible event order; they must nevertheless be safe for concurrent
// use because independent runs may share a tracer.
type Tracer interface {
	// Emit records one event. Implementations assign Event.Seq and may
	// stamp Event.Elapsed; all other fields are the emitter's.
	Emit(Event)
}

// Nop is the no-op Tracer used when tracing is not requested. The zero
// value is ready to use.
type Nop struct{}

// Emit implements Tracer.
func (Nop) Emit(Event) {}

// OrNop returns t, or Nop when t is nil — the resolution helper every
// instrumented option struct uses.
func OrNop(t Tracer) Tracer {
	if t == nil {
		return Nop{}
	}
	return t
}

// Multi fans every event out to all listed tracers. Each receiving tracer
// assigns its own sequence numbers.
type Multi []Tracer

// Emit implements Tracer.
func (m Multi) Emit(e Event) {
	for _, t := range m {
		t.Emit(e)
	}
}
