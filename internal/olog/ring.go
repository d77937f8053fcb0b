package olog

import (
	"io"

	"nontree/internal/jsonl"
	"nontree/internal/ring"
)

// DefaultRingCapacity is the event capacity NewRing uses for
// capacity <= 0 — one event per request, so this is the window of recent
// requests a long-lived daemon keeps inspectable at /logs.
const DefaultRingCapacity = 1024

// Ring is an internal/ring bounded ring of the most recent requests' wide
// events, grown in chunks on demand up to its capacity. Safe for concurrent use; its
// lock is a leaf (DESIGN.md §14). Unlike trace.Ring it never reads the
// clock: serve stamps every timing through the obs helpers first.
type Ring struct {
	events *ring.Ring[Event]
}

// NewRing returns a ring retaining the last capacity events
// (DefaultRingCapacity when capacity <= 0).
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		capacity = DefaultRingCapacity
	}
	return &Ring{events: ring.New(capacity, func(e *Event, seq int64) { e.Seq = seq })}
}

// Append assigns the next sequence number and appends the event,
// evicting the oldest when full. It reports whether an event was
// evicted, so the caller can account the eviction.
func (r *Ring) Append(e Event) (evicted bool) { return r.events.Push(e) }

// Find returns the retained event for the given request ID. The scan
// runs newest-first so a (never expected) duplicated ID resolves to the
// most recent event.
func (r *Ring) Find(requestID string) (Event, bool) {
	return r.events.FindLast(func(e *Event) bool { return e.RequestID == requestID })
}

// Events returns the retained events, oldest first. The slice is a copy.
func (r *Ring) Events() []Event { return r.events.Events() }

// Len returns the number of retained events.
func (r *Ring) Len() int { return r.events.Len() }

// Dropped returns how many events were evicted by wraparound; zero means
// Events holds the daemon's complete request history.
func (r *Ring) Dropped() int64 { return r.events.Dropped() }

// AppendJSONL appends the retained events as canonical JSONL to b,
// encoding them where they lie under the ring's lock, with no copy of the
// events.
func (r *Ring) AppendJSONL(b []byte) []byte {
	r.events.Each(func(e *Event) { b = append(e.Append(b), '\n') })
	return b
}

// WriteJSONL writes the retained events as canonical JSONL, encoded under
// the ring's lock into a pooled buffer and written outside it.
func (r *Ring) WriteJSONL(w io.Writer) error {
	bp := jsonl.GetBuffer()
	defer jsonl.PutBuffer(bp)
	*bp = r.AppendJSONL(*bp)
	_, err := w.Write(*bp)
	return err
}

// Fingerprint renders the deterministic projection of the retained
// events; see the package-level Fingerprint.
func (r *Ring) Fingerprint() string {
	return Fingerprint(r.Events())
}
