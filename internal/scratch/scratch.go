// Package scratch keeps idle workspaces for reuse across calls, so a hot
// computation that needs temporary buffers allocates them once per
// processor rather than once per call.
package scratch

import (
	"runtime"
	"sync/atomic"
)

// Slots holds idle workspaces of type T, one slot for each processor that
// may be working at the same time. Unlike a sync.Pool it never drops a
// workspace at random, as a Pool does under the race detector, so a warm
// caller allocates deterministically. Get and Put are safe for concurrent
// use; a workspace is owned by one caller between its Get and its Put.
type Slots[T any] []atomic.Pointer[T]

// New returns empty slots.
func New[T any]() Slots[T] {
	//nontree:allow nondetsource the count only bounds how many idle workspaces are kept, never a result
	return make(Slots[T], runtime.GOMAXPROCS(0))
}

// Get takes an idle workspace, or returns a new zero one when none is
// idle.
func (s Slots[T]) Get() *T {
	for i := range s {
		if w := s[i].Swap(nil); w != nil {
			return w
		}
	}
	return new(T)
}

// Put returns w for reuse; it is dropped when every slot is taken.
func (s Slots[T]) Put(w *T) {
	for i := range s {
		if s[i].CompareAndSwap(nil, w) {
			return
		}
	}
}
