package a

import "sync"

// Box is a generic guarded type: its methods reach the fields through an
// instantiation, which must resolve to the annotated declaration.
type Box[T any] struct {
	mu sync.Mutex
	//nontree:guardedby mu
	items []T
}

// Add locks around the write.
func (b *Box[T]) Add(v T) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.items = append(b.items, v)
}

// Len reads without the lock.
func (b *Box[T]) Len() int {
	return len(b.items) // want `field items is guarded by mu but read without holding it`
}

// IntBoxLen reads through a concrete instantiation without the lock.
func IntBoxLen(b *Box[int]) int {
	return len(b.items) // want `field items is guarded by mu but read without holding it`
}
