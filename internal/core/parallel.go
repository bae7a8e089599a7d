package core

import (
	"sync"

	"repro/internal/par"
)

// maxPerPartition folds a per-index value into per-partition maxima in
// parallel: for each i in [0,n), value(i) is accumulated into
// out[part(i)] under max. Each worker keeps private partials and merges
// them under a lock at the end, so the hot loop needs none; max is
// order-free, so the result does not depend on the worker count.
func maxPerPartition(n, parts, workers int, part func(i int) int, value func(i int) float64) []float64 {
	out := make([]float64, parts)
	var mu sync.Mutex
	par.For(n, workers, func(lo, hi int) {
		local := make([]float64, parts)
		for i := lo; i < hi; i++ {
			p := part(i)
			if v := value(i); v > local[p] {
				local[p] = v
			}
		}
		mu.Lock()
		defer mu.Unlock()
		for p, v := range local {
			if v > out[p] {
				out[p] = v
			}
		}
	})
	return out
}
