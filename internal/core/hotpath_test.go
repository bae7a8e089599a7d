package core

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/knn"
	"repro/internal/metric"
	"repro/internal/obs"
)

// SearchOptionsInto must be the same computation as Search/SearchApprox,
// only appending into the caller's buffer.
func TestSearchIntoMatchesSearch(t *testing.T) {
	f := build(t, dataset.TwitterLike, 900, Config{Seed: 21})
	queries := f.ds.SampleQueries(20, 9)
	var buf, bufA []knn.Result
	for qi := range queries {
		q := &queries[qi]
		buf = f.idx.SearchOptionsInto(buf[:0], q, 10, 0.5, SearchOptions{}, nil)
		sameResults(t, "exact into", f.idx.Search(q, 10, 0.5, nil), buf)
		bufA = f.idx.SearchOptionsInto(bufA[:0], q, 10, 0.5, SearchOptions{Approx: true}, nil)
		sameResults(t, "approx into", f.idx.SearchApprox(q, 10, 0.5, nil), bufA)
	}
}

// SearchOptionsInto must append after existing dst entries, not clobber
// them.
func TestSearchIntoAppends(t *testing.T) {
	f := build(t, dataset.TwitterLike, 300, Config{Seed: 22})
	q := &f.ds.Objects[5]
	sentinel := knn.Result{ID: 424242, Dist: -1}
	out := f.idx.SearchOptionsInto([]knn.Result{sentinel}, q, 5, 0.5, SearchOptions{}, nil)
	if len(out) != 6 || out[0] != sentinel {
		t.Fatalf("dst prefix not preserved: %+v", out[:1])
	}
	sameResults(t, "appended tail", f.idx.Search(q, 5, 0.5, nil), out[1:])
}

// Steady-state SearchOptionsInto must not allocate: all per-query state comes
// from the pooled scratch and the caller's result buffer. AllocsPerRun
// can see a stray allocation if GC empties the sync.Pool mid-measure,
// so the test retries a few times and passes if any attempt is clean.
func TestSearchIntoZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool bypasses its caches under the race detector; zero-alloc steady state cannot hold")
	}
	f := build(t, dataset.TwitterLike, 2000, Config{Seed: 24})
	queries := f.ds.SampleQueries(16, 6)
	var st metric.Stats
	run := func(name string, query func(buf []knn.Result, q *dataset.Object) []knn.Result) {
		buf := make([]knn.Result, 0, 64)
		for qi := range queries { // warm-up: grow pooled scratch and buffer
			buf = query(buf[:0], &queries[qi])
		}
		var got float64
		for attempt := 0; attempt < 3; attempt++ {
			i := 0
			got = testing.AllocsPerRun(len(queries), func() {
				buf = query(buf[:0], &queries[i%len(queries)])
				i++
			})
			if got == 0 {
				return
			}
		}
		t.Errorf("%s: %v allocs per steady-state query, want 0", name, got)
	}
	var es obs.SearchStats
	for name, opts := range map[string]SearchOptions{
		"exact": {}, "approx": {Approx: true}, "explained": {Explain: &es},
	} {
		run(name, func(buf []knn.Result, q *dataset.Object) []knn.Result {
			return f.idx.SearchOptionsInto(buf, q, 10, 0.5, opts, &st)
		})
	}
}

// The vector arena must survive maintenance: after inserts force an
// arena regrow plus deletes and updates, every object's Vec must still
// alias the arena row and searches must stay exact.
func TestArenaSurvivesMaintenance(t *testing.T) {
	f := build(t, dataset.TwitterLike, 400, Config{Seed: 25})
	// Enough inserts to outgrow the arena's initial capacity.
	extra, err := dataset.Generate(dataset.GenConfig{Kind: dataset.TwitterLike, Size: 300, Dim: 32, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	for i := range extra.Objects {
		o := extra.Objects[i]
		o.ID = uint32(1_000_000 + i)
		if err := f.idx.Insert(o); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		if err := f.idx.Delete(f.ds.Objects[i*3].ID); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.idx.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	q := &extra.Objects[7]
	got := f.idx.Search(q, 10, 0.5, nil)
	if len(got) != 10 {
		t.Fatalf("got %d results", len(got))
	}
	if got[0].Dist != 0 {
		t.Fatalf("self-query top distance %v after maintenance", got[0].Dist)
	}
}
