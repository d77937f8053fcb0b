package ring

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// item records its payload and the sequence number Push stamped on it.
type item struct {
	val int
	seq int64
}

func newItemRing(capacity int) *Ring[item] {
	return New(capacity, func(v *item, seq int64) { v.seq = seq })
}

// slots reads the ring's allocated slot count under its lock.
func slots(r *Ring[item]) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.buf.slots
}

// chunkOf returns the chunk length of r's storage.
func chunkOf(r *Ring[item]) int { return 1 << r.buf.shift }

// TestRingMatchesKeepLastN compares the ring with a naive keep-last-N
// slice: same retained values in the same order, same Len and Dropped,
// sequence numbers 1, 2, … in emission order, and storage that never
// outgrows the capacity, nor max(2×retained, chunk) + chunk slots: the
// first chunk at most doubles what it holds, and only the newest later
// chunk has room to spare. The values go in by single Pushes and, on
// fresh rings, by PushEach batches of several sizes, down to one and
// beyond the capacity, which must all leave the same state.
func TestRingMatchesKeepLastN(t *testing.T) {
	for _, capacity := range []int{1, 2, 3, 7, 1 << 16} {
		for _, n := range []int{0, capacity - 1, capacity, capacity + 1, 3*capacity + 2} {
			t.Run(fmt.Sprintf("cap=%d/n=%d", capacity, n), func(t *testing.T) {
				// batch 0 pushes singly.
				for _, batch := range []int{0, 1, 2, 5, capacity + 3} {
					r := newItemRing(capacity)
					var naive []item
					evictions := 0
					for i := 0; i < n; {
						k := min(max(batch, 1), n-i)
						if batch == 0 {
							if r.Push(item{val: i}) {
								evictions++
							}
						} else {
							base := i
							evictions += r.PushEach(k, func(j int, v *item, seq int64) {
								if *v != (item{}) {
									t.Errorf("batch %d: fill got a used slot %+v", batch, *v)
								}
								*v = item{val: base + j, seq: seq}
							})
						}
						for ; k > 0; k, i = k-1, i+1 {
							naive = append(naive, item{val: i, seq: int64(i + 1)})
							if len(naive) > capacity {
								naive = naive[1:]
							}
						}
						if c, chunk := slots(r), chunkOf(r); c > capacity || c > max(2*len(naive), chunk)+chunk {
							t.Fatalf("batch %d, after %d values: %d slots, capacity %d, retained %d, chunk %d", batch, i, c, capacity, len(naive), chunk)
						}
					}
					got := r.Events()
					if len(got) != len(naive) || r.Len() != len(naive) {
						t.Fatalf("batch %d: Events has %d values, Len %d, want %d", batch, len(got), r.Len(), len(naive))
					}
					for i := range naive {
						if got[i] != naive[i] {
							t.Fatalf("batch %d: Events[%d] = %+v, want %+v", batch, i, got[i], naive[i])
						}
					}
					wantDropped := max(n-capacity, 0)
					if r.Dropped() != int64(wantDropped) || evictions != wantDropped {
						t.Fatalf("batch %d: Dropped = %d, pushes reported %d evictions, want %d", batch, r.Dropped(), evictions, wantDropped)
					}
				}
			})
		}
	}
}

func TestRingFindLastNewestFirst(t *testing.T) {
	r := newItemRing(4)
	for i := 0; i < 6; i++ {
		r.Push(item{val: i % 2})
	}
	if v, ok := r.FindLast(func(v *item) bool { return v.val == 0 }); !ok || v.seq != 5 {
		t.Fatalf("FindLast(val 0) = %+v, %v; want seq 5", v, ok)
	}
	if _, ok := r.FindLast(func(v *item) bool { return v.val == 2 }); ok {
		t.Fatal("FindLast matched a value never pushed")
	}
}

// TestRingConcurrentPushEvents races pushes and batches against
// snapshots: every snapshot must be a contiguous, ascending run of
// sequence numbers, and nothing may be lost between the retained and
// dropped counts.
func TestRingConcurrentPushEvents(t *testing.T) {
	const writers, perWriter, capacity = 8, 100, 64
	r := newItemRing(capacity)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Half the values go in singly, half in batches of five.
			for i := 0; i < perWriter/2; i++ {
				r.Push(item{val: i})
			}
			for i := perWriter / 2; i < perWriter; i += 5 {
				r.PushEach(5, func(j int, v *item, seq int64) { *v = item{val: i + j, seq: seq} })
			}
		}()
	}
	errs := make(chan error, 1)
	go func() {
		defer close(errs)
		for i := 0; i < 200; i++ {
			events := r.Events()
			for j := 1; j < len(events); j++ {
				if events[j].seq != events[j-1].seq+1 {
					errs <- fmt.Errorf("snapshot seq %d follows %d", events[j].seq, events[j-1].seq)
					return
				}
			}
		}
	}()
	wg.Wait()
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	if r.Len() != capacity || r.Dropped() != writers*perWriter-capacity {
		t.Fatalf("Len %d, Dropped %d after %d pushes", r.Len(), r.Dropped(), writers*perWriter)
	}
	events := r.Events()
	if last := events[len(events)-1].seq; last != writers*perWriter {
		t.Fatalf("newest seq %d, want %d", last, writers*perWriter)
	}
}

// TestRingPushDoesNotAllocate guards the push path: Push stamps the stored
// slot, so the pushed value never escapes to the heap, PushEach fills the
// slots themselves, and a push allocates only when it opens a chunk — not
// inside the first chunk once it has doubled, not inside a later chunk,
// and not at capacity, when it evicts.
func TestRingPushDoesNotAllocate(t *testing.T) {
	chunk := chunkOf(newItemRing(1))
	capacity := 4 * chunk
	for _, c := range []struct {
		name   string
		filled int
	}{
		// Each state leaves room for every push AllocsPerRun makes.
		{"first chunk", chunk/2 + 1},
		{"later chunk", 2*chunk + 1},
		{"at capacity", capacity},
	} {
		r := newItemRing(capacity)
		for i := 0; i < c.filled; i++ {
			r.Push(item{val: i})
		}
		before := slots(r)
		if n := testing.AllocsPerRun(100, func() { r.Push(item{val: -1}) }); n != 0 {
			t.Errorf("%s: %v allocations per Push, want 0", c.name, n)
		}
		fill := func(j int, v *item, seq int64) { *v = item{val: j, seq: seq} }
		if n := testing.AllocsPerRun(100, func() { r.PushEach(3, fill) }); n != 0 {
			t.Errorf("%s: %v allocations per PushEach, want 0", c.name, n)
		}
		if slots(r) != before {
			t.Fatalf("%s: a chunk opened during the measurement", c.name)
		}
	}
}

// TestRingBatchSizesFirstChunk: a batch grows a short first chunk once, to
// the size the batch needs, up to a whole chunk, instead of doubling it
// value by value; a batch beyond it opens whole chunks.
func TestRingBatchSizesFirstChunk(t *testing.T) {
	r := newItemRing(1 << 20)
	chunk := chunkOf(r)
	fill := func(_ int, v *item, seq int64) { v.seq = seq }
	r.Push(item{})
	r.PushEach(100, fill)
	if got := slots(r); got != 101 {
		t.Fatalf("one value and a batch of 100: %d slots, want 101", got)
	}
	r.PushEach(chunk, fill)
	if got := slots(r); got != 2*chunk {
		t.Fatalf("then a batch of %d: %d slots, want %d", chunk, got, 2*chunk)
	}
}

// TestRingChunkOpensWithoutCopy: pushing one full chunk past the ones a
// ring holds costs exactly one allocation, that chunk, and moves no value
// already stored: every earlier slot keeps its address. The chunk index
// (slice headers only) doubles like any append; after three chunks it has
// room for the fourth.
func TestRingChunkOpensWithoutCopy(t *testing.T) {
	r := newItemRing(1 << 20)
	chunk := chunkOf(r)
	for i := 0; i < 3*chunk; i++ {
		r.Push(item{val: i})
	}
	r.mu.Lock()
	addrs := make([]*item, r.n)
	for i := range addrs {
		addrs[i] = r.buf.at(i)
	}
	index := cap(r.buf.list)
	r.mu.Unlock()

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < chunk; i++ {
		r.Push(item{val: -1})
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 1 {
		t.Errorf("pushing one chunk: %d allocations, want 1", n)
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	if cap(r.buf.list) != index {
		t.Fatalf("chunk index grew from %d to %d; the test expects room for the fourth chunk", index, cap(r.buf.list))
	}
	for i, p := range addrs {
		if r.buf.at(i) != p || p.val != i {
			t.Fatalf("slot %d moved or changed: %p %+v, was %p", i, r.buf.at(i), *r.buf.at(i), p)
		}
	}
}

// TestRingNewRejectsNonPositiveCapacity: a ring that can hold nothing is
// refused at construction, with a message naming the capacity, instead of
// panicking on its first Push.
func TestRingNewRejectsNonPositiveCapacity(t *testing.T) {
	for _, capacity := range []int{0, -1} {
		func() {
			defer func() {
				want := fmt.Sprintf("ring: capacity %d is not positive", capacity)
				if got := recover(); got != want {
					t.Errorf("New(%d) panicked with %v, want %q", capacity, got, want)
				}
			}()
			newItemRing(capacity)
		}()
	}
}

// TestPoolRecyclesWholeChunks: a pooled ring opens only whole chunks, and
// Release hands them to the pool, from which the next ring takes them
// without opening any; the pool keeps no more than its bound.
func TestPoolRecyclesWholeChunks(t *testing.T) {
	chunk := chunkOf(newItemRing(1))
	pool := NewPool[item](2 * chunk)
	stamp := func(v *item, seq int64) { v.seq = seq }
	r := NewPooled(1<<20, pool, stamp)
	for i := 0; i < 2*chunk+1; i++ {
		r.Push(item{val: i})
	}
	if got := slots(r); got != 3*chunk {
		t.Fatalf("a pooled ring of %d values holds %d slots, want %d whole chunks", 2*chunk+1, got, 3*chunk)
	}
	if got := pool.Opened(); got != 3 {
		t.Fatalf("opened %d chunks, want 3", got)
	}
	r.Release()
	pool.mu.Lock()
	free := len(pool.free)
	pool.mu.Unlock()
	if free != 2 {
		t.Fatalf("free list holds %d chunks after releasing 3, want the bound 2", free)
	}

	next := NewPooled(1<<20, pool, stamp)
	next.PushEach(2*chunk, func(j int, v *item, seq int64) {
		if *v != (item{}) {
			t.Errorf("a recycled slot reached fill unzeroed: %+v", *v)
		}
		*v = item{val: j, seq: seq}
	})
	if got := pool.Opened(); got != 3 {
		t.Fatalf("a ring of two chunks opened %d more with two on the free list", got-3)
	}
	want := make([]item, 2*chunk)
	for j := range want {
		want[j] = item{val: j, seq: int64(j + 1)}
	}
	if got := next.Events(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatal("the ring on recycled chunks retains other values than were pushed")
	}

	// A capacity short of a whole chunk keeps the unpooled growth, and its
	// chunk is not recycled.
	short := NewPooled(chunk/2, pool, stamp)
	short.Push(item{})
	short.Release()
	pool.mu.Lock()
	free = len(pool.free)
	pool.mu.Unlock()
	if free != 0 || slots(short) != 0 {
		t.Fatalf("after a short ring's release: %d free chunks, %d slots; want 0, 0", free, slots(short))
	}
}

// TestRingReleased: a released ring retains nothing, keeps its Dropped
// count, visits nothing and refuses pushes; Release is idempotent.
func TestRingReleased(t *testing.T) {
	r := newItemRing(3)
	for i := 0; i < 5; i++ {
		r.Push(item{val: i})
	}
	r.Release()
	r.Release()
	visited := 0
	if r.Each(func(*item) { visited++ }) || visited != 0 {
		t.Errorf("Each on a released ring: visited %d", visited)
	}
	if r.Len() != 0 || len(r.Events()) != 0 || r.Dropped() != 2 {
		t.Errorf("released ring: Len %d, %d events, Dropped %d; want 0, 0, 2", r.Len(), len(r.Events()), r.Dropped())
	}
	defer func() {
		if recover() == nil {
			t.Error("a push to a released ring did not panic")
		}
	}()
	r.Push(item{})
}

// TestRingEachMatchesEvents: Each visits what Events copies, oldest first,
// before and after wraparound.
func TestRingEachMatchesEvents(t *testing.T) {
	chunk := chunkOf(newItemRing(1))
	r := newItemRing(2*chunk + 3)
	for i := 0; i < 5*chunk; i++ {
		r.Push(item{val: i})
		if i%chunk != 7 {
			continue
		}
		var got []item
		if !r.Each(func(v *item) { got = append(got, *v) }) {
			t.Fatal("Each reported a live ring released")
		}
		if fmt.Sprint(got) != fmt.Sprint(r.Events()) {
			t.Fatalf("after %d pushes Each visits other values than Events returns", i+1)
		}
	}
}
