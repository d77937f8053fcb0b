package ring

import (
	"fmt"
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

// bufCap reads the buffer's allocated capacity under the ring's lock.
func bufCap(r *Ring[item]) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return cap(r.buf)
}

// TestRingMatchesKeepLastN compares the ring with a naive keep-last-N
// slice: same retained values in the same order, same Len and Dropped,
// sequence numbers 1, 2, … in emission order, and a buffer that never
// outgrows the capacity nor twice the retained values.
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
					if c := bufCap(r); c > capacity || c > 2*len(naive) {
						t.Fatalf("after %d pushes: cap(buf) = %d, capacity %d, retained %d", i+1, c, capacity, len(naive))
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
// slot, so the pushed value never escapes to the heap, and a push that
// does not grow the buffer allocates nothing — below capacity once the
// buffer has grown, and at capacity when it evicts.
func TestRingPushDoesNotAllocate(t *testing.T) {
	const capacity = 1024
	for _, c := range []struct {
		name   string
		filled int
	}{
		// 513 values leave the buffer at 1024 slots, room for every push
		// AllocsPerRun makes.
		{"below capacity", capacity/2 + 1},
		{"at capacity", capacity},
	} {
		r := newItemRing(capacity)
		for i := 0; i < c.filled; i++ {
			r.Push(item{val: i})
		}
		if n := testing.AllocsPerRun(100, func() { r.Push(item{val: -1}) }); n != 0 {
			t.Errorf("%s: %v allocations per Push, want 0", c.name, n)
		}
		if c.filled < capacity && r.Len() >= capacity {
			t.Fatalf("%s: ring filled up during the measurement", c.name)
		}
	}
}
