package core

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/knn"
	"repro/internal/metric"
)

var benchSink []knn.Result

// BenchmarkExactFilterPass prices one visited row of the exact search
// (the gated float32 row loop; k = 10, λ = 0.5, the repository
// benchmark's defaults) on a 20k×100 TwitterLike index. bench/'s layer
// ladder resolves ±20 µs per query; the per-row steps of the loop (the
// gate arithmetic, the spatial distance) are each below that, so this is
// where they get a number. It fails on any steady-state
// allocation.
func BenchmarkExactFilterPass(b *testing.B) {
	ds, err := dataset.Generate(dataset.GenConfig{Kind: dataset.TwitterLike, Size: 20000, Dim: 100, Seed: 51})
	if err != nil {
		b.Fatal(err)
	}
	sp, err := metric.NewSpace(ds)
	if err != nil {
		b.Fatal(err)
	}
	idx, err := Build(ds, sp, Config{Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	queries := ds.SampleQueries(256, 3)
	buf := make([]knn.Result, 0, 16)
	var st metric.Stats
	for qi := range queries { // warm-up: grow the pooled scratch
		buf = idx.SearchOptionsInto(buf[:0], &queries[qi], 10, 0.5, SearchOptions{}, &st)
	}
	st = metric.Stats{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = idx.SearchOptionsInto(buf[:0], &queries[i%len(queries)], 10, 0.5, SearchOptions{}, &st)
	}
	b.StopTimer()
	benchSink = buf
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(st.VisitedObjects), "ns/row")
	b.ReportMetric(float64(st.VisitedObjects)/float64(b.N), "rows/op")
	if !raceEnabled {
		i := 0
		if a := testing.AllocsPerRun(len(queries), func() {
			buf = idx.SearchOptionsInto(buf[:0], &queries[i%len(queries)], 10, 0.5, SearchOptions{}, &st)
			i++
		}); a != 0 {
			b.Fatalf("%v allocs per steady-state query, want 0", a)
		}
	}
}
