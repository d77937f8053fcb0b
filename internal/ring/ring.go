// Package ring is the bounded ring buffer behind trace.Ring and olog.Ring.
// It reads no clock: a caller that timestamps values does so in its stamp
// function.
package ring

import "sync"

// Ring is a bounded buffer keeping the most recent values. Push assigns
// monotonically increasing sequence numbers, so even after wraparound the
// retained tail reports how much history it lost (Dropped). The buffer
// starts empty and doubles on demand up to the capacity, never beyond it,
// so memory follows the values retained. Safe for concurrent use.
//
// Lock order: mu is a leaf lock — while holding it, Ring calls out only to
// the stamp and match functions its owner supplies, which must neither
// lock nor block — so it may be acquired under any caller's lock. The lockorder analyzer
// verifies this nesting stays acyclic (DESIGN.md §14).
type Ring[T any] struct {
	mu sync.Mutex
	//nontree:guardedby mu
	buf []T
	// head is the index of the oldest retained value once buf is full.
	//nontree:guardedby mu
	head int
	//nontree:guardedby mu
	seq int64
	//nontree:guardedby mu
	dropped  int64
	capacity int                   // immutable after New
	stamp    func(v *T, seq int64) // immutable after New
}

// New returns a ring retaining the last capacity values; capacity must be
// positive. Push calls stamp under the ring's lock with each value and its
// sequence number (1, 2, …), on the value's stored slot.
func New[T any](capacity int, stamp func(v *T, seq int64)) *Ring[T] {
	return &Ring[T]{capacity: capacity, stamp: stamp}
}

// Push stores v, evicting the oldest value when full, and stamps the stored
// copy with the next sequence number. It reports whether a value was
// evicted. Stamping the slot rather than v keeps v off the heap, so a push
// allocates only when the buffer grows.
func (r *Ring[T]) Push(v T) (evicted bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	i := r.head
	if len(r.buf) < r.capacity {
		if len(r.buf) == cap(r.buf) {
			grown := make([]T, len(r.buf), min(max(2*len(r.buf), 1), r.capacity))
			copy(grown, r.buf)
			r.buf = grown
		}
		i = len(r.buf)
		r.buf = append(r.buf, v)
	} else {
		r.buf[i] = v
		r.head = (r.head + 1) % r.capacity
		r.dropped++
		evicted = true
	}
	r.stamp(&r.buf[i], r.seq)
	return evicted
}

// Events returns the retained values, oldest first. The slice is a copy.
func (r *Ring[T]) Events() []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]T, 0, len(r.buf))
	out = append(out, r.buf[r.head:]...)
	return append(out, r.buf[:r.head]...)
}

// FindLast returns the newest retained value satisfying match.
func (r *Ring[T]) FindLast(match func(v *T) bool) (T, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := len(r.buf) - 1; i >= 0; i-- {
		v := &r.buf[(r.head+i)%len(r.buf)]
		if match(v) {
			return *v, true
		}
	}
	var zero T
	return zero, false
}

// Len returns the number of retained values.
func (r *Ring[T]) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}

// Dropped returns how many values were evicted by wraparound; zero means
// Events holds every value ever pushed.
func (r *Ring[T]) Dropped() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}
