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
// chunk has room to spare.
func TestRingMatchesKeepLastN(t *testing.T) {
	for _, capacity := range []int{1, 2, 3, 7, 1 << 16} {
		for _, n := range []int{0, capacity - 1, capacity, capacity + 1, 3*capacity + 2} {
			t.Run(fmt.Sprintf("cap=%d/n=%d", capacity, n), func(t *testing.T) {
				r := newItemRing(capacity)
				var naive []item
				evictions := 0
				for i := 0; i < n; i++ {
					if r.Push(item{val: i}) {
						evictions++
					}
					naive = append(naive, item{val: i, seq: int64(i + 1)})
					if len(naive) > capacity {
						naive = naive[1:]
					}
					if c, chunk := slots(r), chunkOf(r); c > capacity || c > max(2*len(naive), chunk)+chunk {
						t.Fatalf("after %d pushes: %d slots, capacity %d, retained %d, chunk %d", i+1, c, capacity, len(naive), chunk)
					}
				}
				got := r.Events()
				if len(got) != len(naive) || r.Len() != len(naive) {
					t.Fatalf("Events has %d values, Len %d, want %d", len(got), r.Len(), len(naive))
				}
				for i := range naive {
					if got[i] != naive[i] {
						t.Fatalf("Events[%d] = %+v, want %+v", i, got[i], naive[i])
					}
				}
				wantDropped := max(n-capacity, 0)
				if r.Dropped() != int64(wantDropped) || evictions != wantDropped {
					t.Fatalf("Dropped = %d, Push reported %d evictions, want %d", r.Dropped(), evictions, wantDropped)
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

// TestRingConcurrentPushEvents races pushes against snapshots: every
// snapshot must be a contiguous, ascending run of sequence numbers, and
// nothing may be lost between the retained and dropped counts.
func TestRingConcurrentPushEvents(t *testing.T) {
	const writers, perWriter, capacity = 8, 100, 64
	r := newItemRing(capacity)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				r.Push(item{val: i})
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
// slot, so the pushed value never escapes to the heap, and a push
// allocates only when it opens a chunk — not inside the first chunk once
// it has doubled, not inside a later chunk, and not at capacity, when it
// evicts.
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
		if slots(r) != before {
			t.Fatalf("%s: a chunk opened during the measurement", c.name)
		}
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
