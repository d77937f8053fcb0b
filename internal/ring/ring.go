// Package ring is the bounded ring buffer behind trace.Ring and olog.Ring,
// and the free list (Pool) through which a daemon recycles the storage of
// the rings it has finished with. It reads no clock: a caller that
// timestamps values does so in its stamp function.
package ring

import (
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"
)

// chunkBytes bounds the size of one storage chunk: 256 trace.Events or 64
// olog.Events.
const chunkBytes = 32 << 10

// Ring is a bounded buffer keeping the most recent values. Push assigns
// monotonically increasing sequence numbers, so even after wraparound the
// retained tail reports how much history it lost (Dropped). Values live in
// chunks (see chunks), allocated on demand up to the capacity, never
// beyond it, so memory follows the values retained. Safe for concurrent
// use.
//
// Lock order: while holding mu, Ring calls out only to its Pool, whose
// lock is a leaf, and to the stamp, fill, match and visit functions its
// owner supplies, which must neither lock nor block — so mu may be
// acquired under any caller's lock.
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
	dropped int64
	// released is set by Release, after which the ring holds no storage.
	//nontree:guardedby mu
	released bool
	capacity int                   // immutable after New
	stamp    func(v *T, seq int64) // immutable after New
}

// New returns a ring retaining the last capacity values. Push calls stamp
// under the ring's lock with each value and its sequence number (1, 2, …),
// on the value's stored slot. It panics if capacity is not positive.
func New[T any](capacity int, stamp func(v *T, seq int64)) *Ring[T] {
	return NewPooled(capacity, nil, stamp)
}

// NewPooled is New for a ring whose storage comes from pool and goes back
// to it on Release (a nil pool is New). While capacity allows, such a ring
// holds only whole chunks, so every chunk it opens can be recycled.
func NewPooled[T any](capacity int, pool *Pool[T], stamp func(v *T, seq int64)) *Ring[T] {
	if capacity <= 0 {
		panic(fmt.Sprintf("ring: capacity %d is not positive", capacity))
	}
	return &Ring[T]{buf: chunks[T]{shift: chunkShift[T](), limit: capacity, pool: pool}, capacity: capacity, stamp: stamp}
}

// chunkShift returns log2 of the slots in one whole chunk of T: the
// largest power of two of values within chunkBytes.
func chunkShift[T any]() int {
	var zero T
	size, shift := max(int(unsafe.Sizeof(zero)), 1), 0
	for size<<(shift+1) <= chunkBytes {
		shift++
	}
	return shift
}

// chunks is a ring's slot storage: slot i is list[i>>shift][i&(1<<shift-1)],
// and every chunk holds 1<<shift slots (the largest power of two within
// chunkBytes) except where limit cuts the last one short. Without a pool,
// the first chunk starts at one slot and doubles, or grows at once to the
// size a batch needs, so a short ring does not pay for a whole chunk; after
// it is full, whole chunks are appended. A value is copied only while the
// first chunk grows, never once its chunk is full. With a pool, every chunk
// is whole from the start (limit permitting) and taken from the pool's
// free list when it has one.
type chunks[T any] struct {
	list  [][]T
	slots int // allocated slots
	shift int
	limit int      // the ring's capacity
	pool  *Pool[T] // nil: an unpooled ring
}

func (c *chunks[T]) at(i int) *T { return &c.list[i>>c.shift][i&(1<<c.shift-1)] }

// grow allocates at least one more slot, and in the first chunk room for
// want slots in all, if it can hold them; slots must be below limit.
func (c *chunks[T]) grow(want int) {
	whole := 1 << c.shift
	if c.pool != nil && c.limit-c.slots >= whole {
		c.list, c.slots = append(c.list, c.pool.take()), c.slots+whole
		return
	}
	if c.slots < whole {
		first := make([]T, min(max(2*c.slots, want), whole, c.limit))
		if c.slots > 0 {
			copy(first, c.list[0])
		}
		c.list, c.slots = append(c.list[:0], first), len(first)
		c.pool.count()
		return
	}
	next := make([]T, min(whole, c.limit-c.slots))
	c.list, c.slots = append(c.list, next), c.slots+len(next)
	c.pool.count()
}

// Push stores v, evicting the oldest value when full, and stamps the stored
// copy with the next sequence number. It reports whether a value was
// evicted. Stamping the slot rather than v keeps v off the heap, so a push
// allocates only when it opens a chunk (or doubles the first).
func (r *Ring[T]) Push(v T) (evicted bool) {
	return r.PushEach(1, func(_ int, slot *T, seq int64) {
		*slot = v
		r.stamp(slot, seq)
	}) > 0
}

// PushEach stores n values under one acquisition of the lock, with the
// same effect as n Pushes: fill(i, v, seq) writes value i straight into
// its zeroed slot and stamps it with seq, in place of the ring's stamp
// function, so a batch can share one stamp. fill runs under the ring's
// lock, in order i = 0, 1, …, n-1, and must neither lock nor block.
// PushEach reports how many values it evicted.
// A released ring must not be pushed to: PushEach panics.
func (r *Ring[T]) PushEach(n int, fill func(i int, v *T, seq int64)) (evicted int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.released {
		panic("ring: push to a released ring")
	}
	var zero T
	for k := 0; k < n; k++ {
		r.seq++
		i := r.head
		if r.n < r.capacity {
			if r.n == r.buf.slots {
				r.buf.grow(r.n + n - k)
			}
			i = r.n
			r.n++
		} else {
			r.head = (r.head + 1) % r.capacity
			r.dropped++
			evicted++
		}
		slot := r.buf.at(i)
		*slot = zero
		fill(k, slot, r.seq)
	}
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

// Each calls visit on every retained value, oldest first, under the
// ring's lock, so a caller can encode the values where they lie instead of
// copying them out; visit must neither lock nor block, nor keep v. Each
// reports false, visiting nothing, once the ring has been released.
func (r *Ring[T]) Each(visit func(v *T)) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for k := 0; k < r.n; k++ {
		visit(r.buf.at((r.head + k) % r.n))
	}
	return !r.released
}

// Release empties the ring for good and hands its whole chunks to its
// pool, if it has one, for other rings to reuse; the values stay in them
// until overwritten, so a pool suits pointer-free values. Afterwards the
// ring retains nothing, Dropped is unchanged, Each reports false and a
// push panics. Release is idempotent; it takes the ring's lock, and then
// the pool's.
func (r *Ring[T]) Release() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.buf.pool != nil {
		r.buf.pool.put(r.buf.list)
	}
	r.buf.list, r.buf.slots, r.n, r.head, r.released = nil, 0, 0, 0, true
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

// Pool is a bounded free list of whole ring chunks, shared by the rings
// made with NewPooled: Release puts a ring's whole chunks on the list and a
// growing ring takes one before it allocates. Safe for concurrent use; its
// lock is a leaf, taken under a ring's.
type Pool[T any] struct {
	mu sync.Mutex
	//nontree:guardedby mu
	free   [][]T
	whole  int          // slots in a whole chunk; immutable after NewPool
	limit  int          // most chunks on the list; immutable after NewPool
	opened atomic.Int64 // chunks its rings allocated
}

// NewPool returns a pool that keeps at most enough chunks on its free list
// to hold values values (at least one chunk).
func NewPool[T any](values int) *Pool[T] {
	whole := 1 << chunkShift[T]()
	return &Pool[T]{whole: whole, limit: max((values+whole-1)/whole, 1)}
}

// Opened returns how many chunks the pool's rings have allocated, whole or
// not, because the free list had none for them: zero growth means they ran
// on recycled storage alone.
func (p *Pool[T]) Opened() int64 { return p.opened.Load() }

// take returns a whole chunk from the free list, or a new one.
func (p *Pool[T]) take() []T {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		c := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return c
	}
	p.mu.Unlock()
	p.count()
	return make([]T, p.whole)
}

// put adds the whole chunks of list to the free list, up to its limit.
func (p *Pool[T]) put(list [][]T) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range list {
		if len(p.free) == p.limit {
			return
		}
		if len(c) == p.whole {
			p.free = append(p.free, c)
		}
	}
}

// count records one chunk allocated for a ring of p (none when p is nil).
func (p *Pool[T]) count() {
	if p != nil {
		p.opened.Add(1)
	}
}
