package trace

import (
	"io"
	"time"

	"nontree/internal/jsonl"
	"nontree/internal/ring"
)

// This file is the only place in package trace that reads the wall clock
// (mirroring obs/span.go): Ring stamps each event's Elapsed field at Emit,
// and one Elapsed on every event of an EmitEach batch.
// Elapsed is the trace's sole nondeterministic field; Event.Deterministic
// drops it, and every byte-identity guarantee is stated over that
// projection, so the clock can never influence an algorithm decision.

// DefaultRingCapacity is the event capacity NewRing uses for capacity <= 0
// — ample for the paper-scale nets (a route-closed benchmark request emits
// 394 events on average) while bounding a long-lived daemon's memory,
// which grows in chunks of 256 events up to it (internal/ring); a pooled
// ring (NewPooledRing) takes those chunks whole from its pool.
const DefaultRingCapacity = 4096

// Ring is the standard Tracer: an internal/ring bounded ring of the most
// recent events, grown in chunks on demand up to its capacity, with Dropped
// reporting how much history wraparound lost. Safe for concurrent use;
// its lock is a leaf (DESIGN.md §14).
type Ring struct {
	events *ring.Ring[Event]
	since  func() float64 // seconds since NewRing: the value of Elapsed
}

// NewRing returns a tracer retaining the last capacity events
// (DefaultRingCapacity when capacity <= 0).
func NewRing(capacity int) *Ring { return NewPooledRing(capacity, nil) }

// NewPooledRing is NewRing for a ring that takes its chunks from pool and
// gives them back on Release (a nil pool is NewRing).
func NewPooledRing(capacity int, pool *ring.Pool[Event]) *Ring {
	if capacity <= 0 {
		capacity = DefaultRingCapacity
	}
	//nontree:allow nondetsource trace timing baseline only; Elapsed is stamped into the sole nondeterministic event field, which Event.Deterministic excludes from every comparison (DESIGN.md §11)
	start := time.Now()
	since := func() float64 {
		//nontree:allow nondetsource trace timing field only; lands in Event.Elapsed, outside the deterministic projection (DESIGN.md §11)
		return time.Since(start).Seconds()
	}
	return &Ring{since: since, events: ring.NewPooled(capacity, pool, func(e *Event, seq int64) {
		e.Seq, e.Elapsed = seq, since()
	})}
}

// Emit implements Tracer: assigns the next sequence number, stamps the
// wall-clock offset, and appends the event, evicting the oldest when full.
func (r *Ring) Emit(e Event) { r.events.Push(e) }

// EmitEach implements Tracer: under one acquisition of the ring's lock,
// fill writes each event straight into its ring slot, which then takes
// the next sequence number and the batch's one Elapsed, read from the
// clock as the batch starts.
func (r *Ring) EmitEach(n int, fill func(i int, e *Event)) {
	var elapsed float64
	r.events.PushEach(n, func(i int, e *Event, seq int64) {
		if i == 0 {
			elapsed = r.since()
		}
		fill(i, e)
		e.Seq, e.Elapsed = seq, elapsed
	})
}

// Events returns the retained events, oldest first. The slice is a copy.
func (r *Ring) Events() []Event { return r.events.Events() }

// Len returns the number of retained events.
func (r *Ring) Len() int { return r.events.Len() }

// Dropped returns how many events were evicted by wraparound; zero means
// Events holds the complete trace.
func (r *Ring) Dropped() int64 { return r.events.Dropped() }

// Release empties the finished ring and hands its chunks back to its pool
// (see ring.Ring.Release); AppendJSONL then reports false.
func (r *Ring) Release() { r.events.Release() }

// AppendJSONL appends the retained events as canonical JSONL to b, encoding
// them where they lie under the ring's lock, with no copy of the events.
// It reports false, appending nothing, once the ring has been released, so
// a read never sees chunks another ring has taken over.
func (r *Ring) AppendJSONL(b []byte) ([]byte, bool) {
	ok := r.events.Each(func(e *Event) { b = append(e.Append(b), '\n') })
	return b, ok
}

// WriteJSONL writes the retained events as canonical JSONL, encoded under
// the ring's lock into a pooled buffer and written outside it.
func (r *Ring) WriteJSONL(w io.Writer) error {
	bp := jsonl.GetBuffer()
	defer jsonl.PutBuffer(bp)
	*bp, _ = r.AppendJSONL(*bp)
	_, err := w.Write(*bp)
	return err
}

// Fingerprint renders the deterministic projection of the retained
// events; see the package-level Fingerprint.
func (r *Ring) Fingerprint() string {
	return Fingerprint(r.Events())
}
