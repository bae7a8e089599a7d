package cssi

import (
	"bytes"
	"testing"

	"repro/internal/dataset"
	"repro/internal/desire"
	"repro/internal/knn"
	"repro/internal/metric"
	"repro/internal/rrstar"
	"repro/internal/rtree"
	"repro/internal/s2rtree"
	"repro/internal/scan"
)

// TestIntegrationAllSearchersAgree is the repository-wide soak test:
// over both generator families, every exact searcher in the repository —
// CSSI, the spatial R-tree, the S²R-tree, DESIRE and the RR*-tree — must
// return the linear-scan result for a grid of λ and k, before and after a
// maintenance stream on the CSSI index.
func TestIntegrationAllSearchersAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("integration soak skipped in -short mode")
	}
	for _, kind := range []dataset.Kind{dataset.TwitterLike, dataset.YelpLike} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			ds, err := dataset.Generate(dataset.GenConfig{Kind: kind, Size: 1200, Dim: 48, Seed: 90})
			if err != nil {
				t.Fatal(err)
			}
			space, err := metric.NewSpace(ds)
			if err != nil {
				t.Fatal(err)
			}
			sc := scan.New(ds, space)

			facade, err := Build(ds, Options{Seed: 91})
			if err != nil {
				t.Fatal(err)
			}
			des, err := desire.Build(ds, space, desire.Config{Seed: 91})
			if err != nil {
				t.Fatal(err)
			}
			type searcher struct {
				name string
				run  func(q *Object, k int, lambda float64) []knn.Result
			}
			searchers := []searcher{
				{"rtree", func(q *Object, k int, l float64) []knn.Result {
					return rtree.NewBaseline(ds, space, 0).Search(q, k, l, nil)
				}},
				{"s2r", func(q *Object, k int, l float64) []knn.Result {
					return s2rtree.Build(ds, space, s2rtree.Config{Seed: 91}).Search(q, k, l, nil)
				}},
				{"desire", func(q *Object, k int, l float64) []knn.Result {
					return des.Search(q, k, l, nil)
				}},
				{"rrstar", func(q *Object, k int, l float64) []knn.Result {
					return rrstar.Build(ds, space, rrstar.Config{Seed: 91}).Search(q, k, l, nil)
				}},
			}

			for _, lambda := range []float64{0, 0.5, 1} {
				for _, k := range []int{1, 10} {
					q := ds.Objects[(int(lambda*10)*131+k*17)%ds.Len()]
					want := sc.Search(&q, k, lambda, nil)
					// The facade index uses its own (identically derived)
					// metric space.
					got := mustDo(facade, SearchRequest{Query: &q, K: k, Lambda: lambda})
					compare(t, "cssi", lambda, k, want, got)
					for _, s := range searchers {
						compare(t, s.name, lambda, k, want, s.run(&q, k, lambda))
					}
				}
			}

			// Maintenance stream on the facade index, then re-verify
			// against a fresh scan of the live population.
			for i := 0; i < 100; i++ {
				if err := facade.Delete(ds.Objects[i].ID); err != nil {
					t.Fatal(err)
				}
			}
			extra, _ := dataset.Generate(dataset.GenConfig{Kind: kind, Size: 100, Dim: 48, Seed: 92})
			for i := range extra.Objects {
				o := extra.Objects[i]
				o.ID += 700000
				if err := facade.Insert(o); err != nil {
					t.Fatal(err)
				}
			}
			live := make([]dataset.Object, 0, facade.Len())
			for i := 100; i < ds.Len(); i++ {
				live = append(live, ds.Objects[i])
			}
			for i := range extra.Objects {
				o := extra.Objects[i]
				o.ID += 700000
				live = append(live, o)
			}
			liveDS := &dataset.Dataset{Objects: live, Dim: 48}
			liveScan := scan.New(liveDS, current(facade).space)
			q := live[7]
			want := liveScan.Search(&q, 10, 0.5, nil)
			got := mustDo(facade, SearchRequest{Query: &q, K: 10, Lambda: 0.5})
			compare(t, "cssi-after-maintenance", 0.5, 10, want, got)

			// Persistence round trip answers identically.
			var buf bytes.Buffer
			if err := facade.Save(&buf); err != nil {
				t.Fatal(err)
			}
			loaded, err := LoadIndex(&buf)
			if err != nil {
				t.Fatal(err)
			}
			compare(t, "cssi-loaded", 0.5, 10, want, mustDo(loaded, SearchRequest{Query: &q, K: 10, Lambda: 0.5}))

			// Batch search agrees with sequential.
			queries := liveDS.SampleQueries(16, 9)
			batch, err := facade.DoBatch(BatchSearchRequest{Queries: queries, K: 5, Lambda: 0.5, Parallelism: 4})
			if err != nil {
				t.Fatal(err)
			}
			for qi := range queries {
				seq := mustDo(facade, SearchRequest{Query: &queries[qi], K: 5, Lambda: 0.5})
				compare(t, "batch", 0.5, 5, seq, batch[qi])
			}
		})
	}
}

func compare(t *testing.T, name string, lambda float64, k int, want, got []knn.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s λ=%v k=%d: %d results, want %d", name, lambda, k, len(got), len(want))
	}
	for i := range want {
		if got[i].Dist != want[i].Dist {
			t.Fatalf("%s λ=%v k=%d result %d: %v vs %v", name, lambda, k, i, got[i].Dist, want[i].Dist)
		}
	}
}
