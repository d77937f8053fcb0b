package trace

import (
	"io"
	"time"

	"nontree/internal/ring"
)

// This file is the only place in package trace that reads the wall clock
// (mirroring obs/span.go): Ring stamps each event's Elapsed field at Emit.
// Elapsed is the trace's sole nondeterministic field; Event.Deterministic
// drops it, and every byte-identity guarantee is stated over that
// projection, so the clock can never influence an algorithm decision.

// DefaultRingCapacity is the event capacity NewRing uses for capacity <= 0
// — ample for the paper-scale nets (a route-closed benchmark request emits
// 394 events on average) while bounding a long-lived daemon's memory.
const DefaultRingCapacity = 4096

// Ring is the standard Tracer: an internal/ring bounded ring of the most
// recent events, grown on demand up to its capacity, with Dropped
// reporting how much history wraparound lost. Safe for concurrent use;
// its lock is a leaf (DESIGN.md §14).
type Ring struct {
	events *ring.Ring[Event]
}

// NewRing returns a tracer retaining the last capacity events
// (DefaultRingCapacity when capacity <= 0).
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		capacity = DefaultRingCapacity
	}
	//nontree:allow nondetsource trace timing baseline only; Elapsed is stamped into the sole nondeterministic event field, which Event.Deterministic excludes from every comparison (DESIGN.md §11)
	start := time.Now()
	return &Ring{events: ring.New(capacity, func(e *Event, seq int64) {
		e.Seq = seq
		//nontree:allow nondetsource trace timing field only; lands in Event.Elapsed, outside the deterministic projection (DESIGN.md §11)
		e.Elapsed = time.Since(start).Seconds()
	})}
}

// Emit implements Tracer: assigns the next sequence number, stamps the
// wall-clock offset, and appends the event, evicting the oldest when full.
func (r *Ring) Emit(e Event) { r.events.Push(e) }

// Events returns the retained events, oldest first. The slice is a copy.
func (r *Ring) Events() []Event { return r.events.Events() }

// Len returns the number of retained events.
func (r *Ring) Len() int { return r.events.Len() }

// Dropped returns how many events were evicted by wraparound; zero means
// Events holds the complete trace.
func (r *Ring) Dropped() int64 { return r.events.Dropped() }

// WriteJSONL writes the retained events as canonical JSONL.
func (r *Ring) WriteJSONL(w io.Writer) error {
	return WriteJSONL(w, r.Events())
}

// Fingerprint renders the deterministic projection of the retained
// events; see the package-level Fingerprint.
func (r *Ring) Fingerprint() string {
	return Fingerprint(r.Events())
}
