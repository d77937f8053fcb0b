// Package ring is the bounded ring buffer behind trace.Ring and olog.Ring.
// It reads no clock: a caller that timestamps values does so in its stamp
// function.
package ring

import (
	"fmt"
	"sync"
	"unsafe"
)

// chunkBytes bounds the size of one storage chunk: 128 trace.Events or 64
// olog.Events.
const chunkBytes = 32 << 10

// Ring is a bounded buffer keeping the most recent values. Push assigns
// monotonically increasing sequence numbers, so even after wraparound the
// retained tail reports how much history it lost (Dropped). Values live in
// chunks (see chunks), allocated on demand up to the capacity, never
// beyond it, so memory follows the values retained. Safe for concurrent
// use.
//
// Lock order: mu is a leaf lock — while holding it, Ring calls out only to
// the stamp and match functions its owner supplies, which must neither
// lock nor block — so it may be acquired under any caller's lock. The lockorder analyzer
// verifies this nesting stays acyclic (DESIGN.md §14).
type Ring[T any] struct {
	mu sync.Mutex
	//nontree:guardedby mu
	buf chunks[T]
	// n is the number of retained values.
	//nontree:guardedby mu
	n int
	// head is the slot of the oldest retained value once the ring is full.
	//nontree:guardedby mu
	head int
	//nontree:guardedby mu
	seq int64
	//nontree:guardedby mu
	dropped  int64
	capacity int                   // immutable after New
	stamp    func(v *T, seq int64) // immutable after New
}

// New returns a ring retaining the last capacity values. Push calls stamp
// under the ring's lock with each value and its sequence number (1, 2, …),
// on the value's stored slot. It panics if capacity is not positive.
func New[T any](capacity int, stamp func(v *T, seq int64)) *Ring[T] {
	if capacity <= 0 {
		panic(fmt.Sprintf("ring: capacity %d is not positive", capacity))
	}
	var zero T
	size, shift := max(int(unsafe.Sizeof(zero)), 1), 0
	for size<<(shift+1) <= chunkBytes {
		shift++
	}
	return &Ring[T]{buf: chunks[T]{shift: shift, limit: capacity}, capacity: capacity, stamp: stamp}
}

// chunks is a ring's slot storage: slot i is list[i>>shift][i&(1<<shift-1)],
// and every chunk holds 1<<shift slots (the largest power of two within
// chunkBytes) except where limit cuts the last one short. The first chunk
// starts at one slot and doubles, so a short ring does not pay for a whole
// chunk; after it is full, whole chunks are appended. A value is copied
// only while the first chunk doubles, never once its chunk is full.
type chunks[T any] struct {
	list  [][]T
	slots int // allocated slots
	shift int
	limit int // the ring's capacity
}

func (c *chunks[T]) at(i int) *T { return &c.list[i>>c.shift][i&(1<<c.shift-1)] }

// grow allocates at least one more slot; slots must be below limit.
func (c *chunks[T]) grow() {
	if c.slots < 1<<c.shift {
		first := make([]T, min(max(2*c.slots, 1), 1<<c.shift, c.limit))
		if c.slots > 0 {
			copy(first, c.list[0])
		}
		c.list, c.slots = append(c.list[:0], first), len(first)
		return
	}
	next := make([]T, min(1<<c.shift, c.limit-c.slots))
	c.list, c.slots = append(c.list, next), c.slots+len(next)
}

// Push stores v, evicting the oldest value when full, and stamps the stored
// copy with the next sequence number. It reports whether a value was
// evicted. Stamping the slot rather than v keeps v off the heap, so a push
// allocates only when it opens a chunk (or doubles the first).
func (r *Ring[T]) Push(v T) (evicted bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	i := r.head
	if r.n < r.capacity {
		if r.n == r.buf.slots {
			r.buf.grow()
		}
		i = r.n
		r.n++
	} else {
		r.head = (r.head + 1) % r.capacity
		r.dropped++
		evicted = true
	}
	slot := r.buf.at(i)
	*slot = v
	r.stamp(slot, r.seq)
	return evicted
}

// Events returns the retained values, oldest first. The slice is a copy.
func (r *Ring[T]) Events() []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]T, r.n)
	for k := range out {
		out[k] = *r.buf.at((r.head + k) % r.n)
	}
	return out
}

// FindLast returns the newest retained value satisfying match.
func (r *Ring[T]) FindLast(match func(v *T) bool) (T, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for k := r.n - 1; k >= 0; k-- {
		v := r.buf.at((r.head + k) % r.n)
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
	return r.n
}

// Dropped returns how many values were evicted by wraparound; zero means
// Events holds every value ever pushed.
func (r *Ring[T]) Dropped() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}
