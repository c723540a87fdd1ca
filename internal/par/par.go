// Package par provides the bounded fork-join helper shared by the
// simulator's Monte-Carlo sampling loop and the planner's candidate
// evaluation fan-out.
//
// The helpers here deliberately expose an index-addressed contract: work is
// identified by a dense integer range, each index is visited exactly once,
// and callers write results into index-addressed storage. Combined with
// per-index deterministic RNG streams (stats.RNG.Stream) this makes
// parallel output bit-identical to serial output at any worker count — the
// scheduling order can vary freely because no result depends on it, and
// every reduction happens afterwards in fixed index order.
package par

import (
	"sync"
	"sync/atomic"
)

// ForEach invokes fn(i) for every i in [0, n), fanning the calls across at
// most workers goroutines, and returns once all calls have completed.
// workers (after clamping to n) <= 1 runs serially on the calling
// goroutine. ForEach guarantees each index is visited exactly once but
// promises nothing about order or goroutine assignment; callers that need
// a deterministic result must write into index-addressed storage and
// reduce in fixed index order after ForEach returns.
//
//rbvet:impure(goroutine fan-out; each index runs exactly once and results are index-addressed, so scheduling order cannot leak)
func ForEach(n, workers int, fn func(int)) {
	ForEachWorker(n, workers, func(_, i int) { fn(i) })
}

// ForEachWorker is ForEach with the executing worker's pool slot passed to
// fn as its first argument. The slot is a dense index in
// [0, min(workers, n)) that identifies the goroutine, not the work item:
// two calls running concurrently always see different slots, so callers
// can give each slot a private scratch buffer and reuse it across the
// indices that slot happens to process. Slot assignment is
// scheduling-dependent; nothing deterministic may be derived from it.
//
//rbvet:impure(goroutine fan-out; slots only address scratch storage and every reduction happens in fixed index order afterwards)
func ForEachWorker(n, workers int, fn func(worker, i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next int64 = -1
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n {
					return
				}
				fn(w, i)
			}
		}(w)
	}
	wg.Wait()
}
