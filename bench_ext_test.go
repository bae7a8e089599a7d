// Benchmarks for the beyond-the-paper extensions: ablations, extended
// query types, batch search, maintenance-heavy flows and persistence.
package cssi

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
)

// --- Ablation: each pruning mechanism isolated ---

func BenchmarkAblation(b *testing.B) {
	e := getEnv(b, dataset.TwitterLike, benchSize, core.Config{})
	configs := []struct {
		name string
		opts core.AblationOptions
	}{
		{"Full", core.AblationOptions{}},
		{"NoInter", core.AblationOptions{DisableInterCluster: true}},
		{"NoIntra", core.AblationOptions{DisableIntraCluster: true}},
		{"NoPruning", core.AblationOptions{DisableInterCluster: true, DisableIntraCluster: true}},
	}
	for _, cfg := range configs {
		b.Run(cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e.idx.SearchAblated(e.query(i), benchK, benchLambda, cfg.opts, nil)
			}
		})
	}
}

// --- Extended query types ---

func BenchmarkRangeSearch(b *testing.B) {
	e := getEnv(b, dataset.TwitterLike, benchSize, core.Config{})
	for _, r := range []float64{0.02, 0.05, 0.1} {
		b.Run(fmt.Sprintf("r=%.2f", r), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e.idx.SearchOptionsInto(nil, e.query(i), e.idx.Len(), benchLambda, core.SearchOptions{Radius: &r}, nil)
			}
		})
	}
}

func BenchmarkSearchInBox(b *testing.B) {
	e := getEnv(b, dataset.TwitterLike, benchSize, core.Config{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q := e.query(i)
		e.idx.SearchOptionsInto(nil, q, 10, 0, core.SearchOptions{Window: &core.Window{LoX: q.X - 0.1, LoY: q.Y - 0.1, HiX: q.X + 0.1, HiY: q.Y + 0.1}}, nil)
	}
}

// workerLevels returns {1, GOMAXPROCS} without duplicates (they collide
// in sub-benchmark names on single-CPU machines).
func workerLevels() []int {
	if n := runtime.GOMAXPROCS(0); n > 1 {
		return []int{1, n}
	}
	return []int{1}
}

// --- Batch search throughput (one batch of 64 queries per iteration) ---

func BenchmarkBatchSearch(b *testing.B) {
	ds, err := dataset.Generate(dataset.GenConfig{Kind: dataset.TwitterLike, Size: benchSize, Dim: 100, Seed: 77})
	if err != nil {
		b.Fatal(err)
	}
	idx, err := Build(ds, Options{Seed: 77})
	if err != nil {
		b.Fatal(err)
	}
	queries := ds.SampleQueries(64, 5)
	for _, workers := range workerLevels() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := idx.DoBatch(BatchSearchRequest{Queries: queries, K: benchK, Lambda: benchLambda, Parallelism: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Persistence ---

func BenchmarkIndexSaveLoad(b *testing.B) {
	e := getEnv(b, dataset.TwitterLike, benchSize, core.Config{})
	var buf bytes.Buffer
	if err := e.idx.Save(&buf); err != nil {
		b.Fatal(err)
	}
	blob := buf.Bytes()
	b.Run("Save", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var w bytes.Buffer
			if err := e.idx.Save(&w); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Load", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := core.Load(bytes.NewReader(blob)); err != nil {
				b.Fatal(err)
			}
		}
	})
}
