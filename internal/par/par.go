// Package par holds the one fan-out primitive of index construction.
// The paper notes (§7.5) that K-Means and hybrid-cluster formation
// parallelize readily; every build phase that does splits its range
// through For, so one worker bound (core.Config.Workers) governs them
// all.
package par

import (
	"runtime"
	"sync"
)

// For splits [0,n) into contiguous chunks and runs fn(lo,hi) on up to
// workers goroutines (workers <= 0 selects GOMAXPROCS). With one worker
// fn runs on the calling goroutine.
func For(n, workers int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		fn(0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
