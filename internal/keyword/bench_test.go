package keyword

import (
	"math/rand/v2"
	"testing"

	"repro/internal/dataset"
)

var builtFilter *Filter

// BenchmarkKeywordBuild times Build over 60,000 TwitterLike texts, the
// corpus the served benchmark filters. The pairs are dealt in a fixed
// shuffled order because a built index hands its rows over cluster-major,
// not by ID. Reports ns/object beside allocs/op.
func BenchmarkKeywordBuild(b *testing.B) {
	const n = 60000
	ds, err := dataset.Generate(dataset.GenConfig{Kind: dataset.TwitterLike, Size: n, Dim: 16, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	ids := make([]uint32, n)
	texts := make([]string, n)
	for i, p := range rand.New(rand.NewPCG(44, 1)).Perm(n) {
		ids[i], texts[i] = ds.Objects[p].ID, ds.Objects[p].Text
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		builtFilter = Build(ids, texts, 0)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/object")
}
