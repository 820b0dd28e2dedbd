package pool

import "sync"

// FreeList is a typed free list over sync.Pool: Get hands out a *T
// (new(T) when the list is empty), Put recycles one. It backs the
// solver arenas — flow networks and round bookkeeping are expensive to
// size up but cheap to reset, so callers Get/Put them around each solve
// instead of reallocating. Like sync.Pool, the list is safe for
// concurrent use and may drop items under memory pressure; correctness
// must not depend on an item coming back. The zero value is ready to
// use.
type FreeList[T any] struct {
	pool sync.Pool
}

// Get returns a recycled *T, or a new one when the list is empty. The
// caller owns the item until Put.
func (f *FreeList[T]) Get() *T {
	if x, ok := f.pool.Get().(*T); ok {
		return x
	}
	return new(T)
}

// Put recycles an item obtained from Get. The item must not be used
// after Put; the caller is responsible for any reset needed before the
// item is handed out again.
func (f *FreeList[T]) Put(x *T) {
	if x != nil {
		f.pool.Put(x)
	}
}
