// Package pool provides small concurrency helpers built only on the
// standard library. Map fans a fixed index range out over a worker pool,
// collects results in order and stops on the first error (a small,
// allocation-light alternative to pulling in errgroup); FreeList
// recycles solver arenas; Group coalesces duplicate concurrent
// computations.
package pool

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Map runs fn(i) for i in [0, n) on up to workers goroutines (workers <=
// 0 selects GOMAXPROCS) and returns the results in index order. The
// first error wins; remaining tasks are skipped (already-started tasks
// finish). fn must be safe for concurrent invocation.
func Map[T any](n, workers int, fn func(i int) (T, error)) ([]T, error) {
	if n < 0 {
		return nil, fmt.Errorf("pool: negative task count %d", n)
	}
	if n == 0 {
		return nil, nil
	}
	if fn == nil {
		return nil, fmt.Errorf("pool: nil task function")
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}

	out := make([]T, n)
	var (
		next    atomic.Int64
		failed  atomic.Bool
		errOnce sync.Once
		firstEr error
		wg      sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() {
					return
				}
				v, err := fn(i)
				if err != nil {
					errOnce.Do(func() { firstEr = fmt.Errorf("pool: task %d: %w", i, err) })
					failed.Store(true)
					return
				}
				out[i] = v
			}
		}()
	}
	wg.Wait()
	if firstEr != nil {
		return nil, firstEr
	}
	return out, nil
}

// ForEach is Map for side-effecting tasks without results.
func ForEach(n, workers int, fn func(i int) error) error {
	if fn == nil {
		return fmt.Errorf("pool: nil task function")
	}
	_, err := Map(n, workers, func(i int) (struct{}, error) {
		return struct{}{}, fn(i)
	})
	return err
}
