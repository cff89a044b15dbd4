package pipeline

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Pool is a fixed-width parallel-for over index-addressed tasks:
// cmd/experiments -workers spreads whole experiments over it, and each
// job forks its replay and classify stages on it at width 2. Each
// task writes its result into a caller-owned slot picked by task index,
// so output order never depends on goroutine scheduling.
type Pool struct {
	workers int
}

// NewPool returns a pool running at most workers tasks concurrently.
// Width 1 (or less) is a plain loop on the calling goroutine.
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	return &Pool{workers: workers}
}

// Each runs fn(0..n-1), blocking until all calls return. With width 1
// the tasks run in index order on the calling goroutine; otherwise they
// are claimed from a shared counter by up to Workers goroutines. A
// panicking task is captured and re-raised on the caller after the
// remaining workers drain.
func (p *Pool) Each(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if p.workers == 1 || n == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	w := p.workers
	if w > n {
		w = n
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicMu  sync.Mutex
		panicked any
	)
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicMu.Lock()
					if panicked == nil {
						panicked = r
					}
					panicMu.Unlock()
					// Drain the counter so sibling workers stop
					// picking up new tasks.
					next.Store(int64(n))
				}
			}()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(fmt.Sprintf("pipeline: worker panic: %v", panicked))
	}
}
