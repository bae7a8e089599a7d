package core

import (
	"math/rand/v2"
	"testing"

	"repro/internal/dataset"
	"repro/internal/knn"
	"repro/internal/metric"
)

// filteredBrute is the reference: scan only the allowed objects.
func filteredBrute(f *fixture, q *dataset.Object, k int, lambda float64, allow func(uint32) bool) []knn.Result {
	h := knn.NewHeap(k)
	for i := range f.ds.Objects {
		o := &f.ds.Objects[i]
		if !allow(o.ID) {
			continue
		}
		h.Push(knn.Result{ID: o.ID, Dist: f.sp.Distance(nil, lambda, q, o)})
	}
	return h.Sorted()
}

func TestSearchFilteredMatchesBruteForce(t *testing.T) {
	f := build(t, dataset.TwitterLike, 900, Config{Seed: 70})
	rng := rand.New(rand.NewPCG(8, 8))
	for trial := 0; trial < 12; trial++ {
		// Random predicate keeping ~30% of objects.
		keep := make(map[uint32]bool)
		for i := range f.ds.Objects {
			if rng.Float64() < 0.3 {
				keep[f.ds.Objects[i].ID] = true
			}
		}
		allow := func(id uint32) bool { return keep[id] }
		q := f.ds.Objects[rng.IntN(f.ds.Len())]
		lambda := rng.Float64()
		want := filteredBrute(f, &q, 10, lambda, allow)
		got := filteredSearch(f.idx, &q, 10, lambda, allow, nil)
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d results, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i].Dist != want[i].Dist {
				t.Fatalf("trial %d result %d: %v vs %v", trial, i, got[i].Dist, want[i].Dist)
			}
			if !allow(got[i].ID) {
				t.Fatalf("trial %d: filtered-out object %d returned", trial, got[i].ID)
			}
		}
	}
}

func TestSearchFilteredAllowAll(t *testing.T) {
	f := build(t, dataset.TwitterLike, 500, Config{Seed: 71})
	q := f.ds.Objects[7]
	want := f.idx.Search(&q, 10, 0.5, nil)
	got := filteredSearch(f.idx, &q, 10, 0.5, func(uint32) bool { return true }, nil)
	sameResults(t, "allow-all filter", want, got)
}

func TestSearchFilteredAllowNone(t *testing.T) {
	f := build(t, dataset.TwitterLike, 300, Config{Seed: 72})
	q := f.ds.Objects[1]
	got := filteredSearch(f.idx, &q, 10, 0.5, func(uint32) bool { return false }, nil)
	if len(got) != 0 {
		t.Fatalf("expected empty, got %d", len(got))
	}
}

func TestSearchFilteredSingleton(t *testing.T) {
	f := build(t, dataset.TwitterLike, 400, Config{Seed: 73})
	target := f.ds.Objects[123].ID
	q := f.ds.Objects[9]
	got := filteredSearch(f.idx, &q, 5, 0.5, func(id uint32) bool { return id == target }, nil)
	if len(got) != 1 || got[0].ID != target {
		t.Fatalf("singleton filter returned %v", got)
	}
}

func TestSearchFilteredStatsCounted(t *testing.T) {
	f := build(t, dataset.TwitterLike, 600, Config{Seed: 74})
	q := f.ds.Objects[3]
	var st metric.Stats
	filteredSearch(f.idx, &q, 10, 0.5, func(id uint32) bool { return id%2 == 0 }, &st)
	if st.VisitedObjects == 0 || st.ClustersExamined == 0 {
		t.Fatalf("stats not recorded: %+v", st)
	}
}
