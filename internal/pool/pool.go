// Package pool is the bounded worker pool shared by the experiment harness
// (fan-out over independent runs), the fleet runner (fan-out over the boards
// woken in one reallocation epoch) and the μ frequency sweep of
// internal/robust (fan-out over grid points). It was extracted from
// internal/exp so internal/core could reuse it without an import cycle.
//
// The pool preserves the harness's determinism contract: jobs are identified
// by index, callers write results into index i of a preallocated slice, and
// error handling is index-deterministic — the lowest-index failure is
// returned regardless of which worker hit an error first.
package pool

import (
	"sync"
	"sync/atomic"

	"yukta/internal/obs"
)

// ForEach runs fn(0) … fn(n-1) on up to workers goroutines, the calling
// goroutine among them, and waits for all of them. workers <= 1 runs the
// jobs sequentially on the calling goroutine.
// After any failure the remaining unstarted jobs are skipped, and the
// lowest-index error is returned.
func ForEach(workers, n int, fn func(i int) error) error {
	return ForEachMetered(workers, n, nil, fn)
}

// ForEachMetered is ForEach with optional pool instrumentation: when m is
// non-nil every executed job increments pool_jobs_total and holds the
// pool_workers_active gauge (whose high-water mark records the peak
// occupancy) for the duration of fn. Instrumentation never changes
// scheduling, so traces and tables stay byte-identical with it on.
func ForEachMetered(workers, n int, m *obs.Registry, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	run := fn
	if m != nil {
		jobs := m.Counter("pool_jobs_total")
		active := m.Gauge("pool_workers_active")
		run = func(i int) error {
			jobs.Add(1)
			active.Add(1)
			defer active.Add(-1)
			return fn(i)
		}
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := run(i); err != nil {
				return err
			}
		}
		return nil
	}
	// Workers claim the next unclaimed index themselves; the caller is one
	// of them, so no goroutine merely hands out work.
	var next atomic.Int64
	var failed atomic.Bool
	var mu sync.Mutex
	errAt, firstErr := n, error(nil)
	work := func() {
		for !failed.Load() {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			if err := run(i); err != nil {
				mu.Lock()
				if i < errAt {
					errAt, firstErr = i, err
				}
				mu.Unlock()
				failed.Store(true)
			}
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return firstErr
}
