// Benchmarks for the query hot path: distance kernels, steady-state
// k-NN search, and batched search. These are the numbers the memory
// layout (contiguous arenas), the unrolled/early-abandoning kernels and
// the pooled per-query scratch are judged by; results_scale1.txt records
// a before/after comparison.
package cssi

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/vec"
)

// hotpathSize is the "default 20k-object setup" of the hot-path
// acceptance measurements (distinct from benchSize so the figure-level
// fixtures stay cheap).
const hotpathSize = 20000

// naiveDot and naiveSqDist are the pre-optimization reference kernels
// (straight-line loops, single accumulator), kept here so the unrolled
// kernels in internal/vec have an in-tree baseline to race against.
func naiveDot(a, b []float32) float64 {
	var s float64
	for i, av := range a {
		s += float64(av) * float64(b[i])
	}
	return s
}

func naiveSqDist(a, b []float32) float64 {
	var s float64
	for i, av := range a {
		d := float64(av) - float64(b[i])
		s += d * d
	}
	return s
}

// kernelOperands returns two deterministic pseudo-random vectors of the
// given dimensionality.
func kernelOperands(dim int) (a, b []float32) {
	a = make([]float32, dim)
	b = make([]float32, dim)
	x := uint32(2463534242)
	next := func() float32 {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		return float32(x%2048)/1024 - 1
	}
	for i := range a {
		a[i] = next()
		b[i] = next()
	}
	return a, b
}

var sinkF64 float64

func BenchmarkSqDist(b *testing.B) {
	for _, dim := range []int{32, 100, 300} {
		a, c := kernelOperands(dim)
		b.Run(fmt.Sprintf("naive/dim=%d", dim), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkF64 = naiveSqDist(a, c)
			}
		})
		b.Run(fmt.Sprintf("unrolled/dim=%d", dim), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkF64 = vec.SqDist(a, c)
			}
		})
		b.Run(fmt.Sprintf("bound-hit/dim=%d", dim), func(b *testing.B) {
			// Tight limit: the kernel abandons after the first block —
			// the fast path a full k-NN heap enables.
			b.ReportAllocs()
			limit := vec.SqDist(a, c) / 16
			for i := 0; i < b.N; i++ {
				sinkF64 = vec.SqDistBound(a, c, limit)
			}
		})
		b.Run(fmt.Sprintf("bound-miss/dim=%d", dim), func(b *testing.B) {
			// Loose limit: full computation plus the checkpoint checks.
			b.ReportAllocs()
			limit := vec.SqDist(a, c) * 2
			for i := 0; i < b.N; i++ {
				sinkF64 = vec.SqDistBound(a, c, limit)
			}
		})
	}
}

func BenchmarkDot(b *testing.B) {
	a, c := kernelOperands(100)
	b.Run("naive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkF64 = naiveDot(a, c)
		}
	})
	b.Run("unrolled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkF64 = vec.Dot(a, c)
		}
	})
}

// BenchmarkSearch measures steady-state exact k-NN on the default
// 20k-object setup (k=50, λ=0.5). "alloc" returns a fresh result slice
// per query (the plain Search API); "into" appends into a reused buffer
// (SearchOptionsInto) and is the zero-alloc steady state.
func BenchmarkSearch(b *testing.B) {
	e := getEnv(b, dataset.TwitterLike, hotpathSize, core.Config{})
	b.Run("alloc", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e.idx.Search(e.query(i), benchK, benchLambda, nil)
		}
	})
	b.Run("into", func(b *testing.B) {
		b.ReportAllocs()
		var buf []Result
		for i := 0; i < b.N; i++ {
			buf = e.idx.SearchOptionsInto(buf[:0], e.query(i), benchK, benchLambda, core.SearchOptions{}, nil)
		}
	})
}

func BenchmarkSearchApprox20k(b *testing.B) {
	e := getEnv(b, dataset.TwitterLike, hotpathSize, core.Config{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.idx.SearchApprox(e.query(i), benchK, benchLambda, nil)
	}
}

// BenchmarkSearchBatch measures the batched API: one call answering 64
// queries across a bounded worker pool.
func BenchmarkSearchBatch(b *testing.B) {
	e := getEnv(b, dataset.TwitterLike, hotpathSize, core.Config{})
	queries := e.queries
	for _, workers := range workerLevels() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := e.idx.SearchBatch(queries, benchK, benchLambda, workers, core.SearchOptions{}, nil, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
