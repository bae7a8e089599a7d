package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/dataset"
	"repro/internal/knn"
	"repro/internal/metric"
)

// SearchBatch answers queries[i] into result slot i using a bounded
// worker pool, every query with the algorithm opts selects (opts' Seed,
// Explain, Partial, Bound and Anchors are per-query values and are
// ignored here).
// workers <= 0 selects GOMAXPROCS. Each worker accumulates work counters
// locally, so a steady-state batch allocates only the per-query result
// slices and never contends on st. Queries are drawn from a shared
// atomic cursor, which load-balances skewed per-query costs better than
// static chunking.
//
// When partial is non-nil it must have one slot per query, and
// partial[i] is set when query i stopped at its time budget (see
// SearchOptions.Deadline); slots of complete queries are left
// untouched. Each worker writes only its own queries' slots, so the
// slice needs no synchronization.
//
// An empty batch returns an empty (non-nil) result without spinning up
// any worker; k <= 0 is rejected with an error rather than panicking
// inside a worker (knn.Heap would otherwise reject it k times, once per
// query, deep in the pool).
func (x *Index) SearchBatch(queries []dataset.Object, k int, lambda float64, workers int, opts SearchOptions, st *metric.Stats, partial []bool) ([][]knn.Result, error) {
	if partial != nil && len(partial) != len(queries) {
		panic(fmt.Sprintf("core: batch partial slice has %d slots for %d queries", len(partial), len(queries)))
	}
	if k <= 0 {
		return nil, fmt.Errorf("core: batch k = %d, want >= 1", k)
	}
	out := make([][]knn.Result, len(queries))
	if len(queries) == 0 {
		return out, nil
	}
	// Reject malformed queries before any worker starts: a panic inside a
	// worker goroutine would not be recoverable by the caller (net/http
	// recovers handler panics, not goroutine panics — an unrecovered one
	// kills the process), so every query must be proven safe up front.
	for i := range queries {
		if len(queries[i].Vec) != x.dim {
			panic(fmt.Sprintf("core: batch query %d has vector dim %d, index expects %d",
				i, len(queries[i].Vec), x.dim))
		}
	}
	// Clamp to GOMAXPROCS at the library layer (the HTTP server clamps
	// too, but library callers get the same guarantee): a batch can
	// never spawn more runnable goroutines than the scheduler has
	// processors, no matter what parallelism the caller requests.
	if maxW := runtime.GOMAXPROCS(0); workers <= 0 || workers > maxW {
		workers = maxW
	}
	if workers > len(queries) {
		workers = len(queries)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	var panicMu sync.Mutex
	var panicked any
	stats := make([]metric.Stats, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Defense in depth: any residual worker panic is re-raised on
			// the calling goroutine after the pool drains, where the
			// caller (or net/http) can recover it.
			defer func() {
				if r := recover(); r != nil {
					panicMu.Lock()
					if panicked == nil {
						panicked = r
					}
					panicMu.Unlock()
				}
			}()
			var local *metric.Stats
			if st != nil {
				local = &stats[w]
			}
			var cut bool
			o := opts
			o.Seed, o.Explain, o.Partial, o.Bound, o.Anchors = nil, nil, &cut, nil, nil
			for {
				qi := int(next.Add(1)) - 1
				if qi >= len(queries) {
					break
				}
				out[qi] = x.SearchOptionsInto(nil, &queries[qi], k, lambda, o, local)
				if partial != nil && cut {
					partial[qi] = true
				}
			}
		}(w)
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
	if st != nil {
		for i := range stats {
			st.Add(&stats[i])
		}
	}
	return out, nil
}
