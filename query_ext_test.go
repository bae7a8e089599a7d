package cssi

import (
	"errors"
	"slices"
	"strings"
	"testing"
)

// The range and window shapes on every flavor: the P = 4 read is a
// seeded chain whose shards carry the radius (or the window's k-th
// bound) forward, and it answers what the flat index answers.
func TestRangeSearchFacade(t *testing.T) {
	ds := testDataset(t, 600)
	q := ds.Objects[5]
	r := 0.08
	var flat []Result
	for _, api := range requestFixtures(t, ds, false) {
		var st Stats
		got, err := api.do(SearchRequest{Query: &q, K: ds.Len(), Lambda: 0.5, Radius: &r, Stats: &st})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) == 0 {
			t.Fatalf("%s: range search around an existing object returned nothing", api.name)
		}
		for i, res := range got {
			if res.Dist > r || i > 0 && !lessResult(got[i-1], res) {
				t.Fatalf("%s: result %d %+v outside the radius or out of order", api.name, i, res)
			}
		}
		if st.VisitedObjects+st.InterPruned+st.IntraPruned != int64(ds.Len()) {
			t.Fatalf("%s: accounting identity broken: %+v", api.name, st)
		}
		if flat == nil {
			flat = got
		}
		equalResults(t, api.name+" vs flat", flat, got)
	}
}

func TestSearchInBoxFacade(t *testing.T) {
	ds := testDataset(t, 600)
	q := ds.Objects[5]
	w := Window{LoX: 0.2, LoY: 0.2, HiX: 0.8, HiY: 0.8}
	var flat []Result
	for _, api := range requestFixtures(t, ds, false) {
		got, err := api.do(SearchRequest{Query: &q, K: 5, Window: &w})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 5 {
			t.Fatalf("%s: %d results", api.name, len(got))
		}
		for _, res := range got {
			o := ds.Objects[slices.IndexFunc(ds.Objects, func(o Object) bool { return o.ID == res.ID })]
			if o.X < w.LoX || o.X > w.HiX || o.Y < w.LoY || o.Y > w.HiY {
				t.Fatalf("%s: result %d outside window: (%v,%v)", api.name, res.ID, o.X, o.Y)
			}
		}
		if flat == nil {
			flat = got
		}
		equalResults(t, api.name+" vs flat", flat, got)
	}
}

func TestBatchSearchMatchesSequential(t *testing.T) {
	ds := testDataset(t, 800)
	idx, err := Build(ds, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	queries := ds.SampleQueries(40, 3)
	var st Stats
	batch, err := idx.DoBatch(BatchSearchRequest{Queries: queries, K: 10, Lambda: 0.5, Parallelism: 4, Stats: &st})
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(queries) {
		t.Fatalf("got %d result sets", len(batch))
	}
	for qi := range queries {
		seq := mustDo(idx, SearchRequest{Query: &queries[qi], K: 10, Lambda: 0.5})
		if len(batch[qi]) != len(seq) {
			t.Fatalf("query %d: %d vs %d results", qi, len(batch[qi]), len(seq))
		}
		for i := range seq {
			if batch[qi][i].Dist != seq[i].Dist {
				t.Fatalf("query %d result %d differs", qi, i)
			}
		}
	}
	if st.VisitedObjects == 0 {
		t.Fatal("batch stats not accumulated")
	}
}

func TestBatchSearchEmpty(t *testing.T) {
	ds := testDataset(t, 50)
	idx, _ := Build(ds, Options{Seed: 13})
	if got, err := idx.DoBatch(BatchSearchRequest{K: 5, Lambda: 0.5, Parallelism: 2}); err != nil || got == nil || len(got) != 0 {
		t.Fatalf("expected empty non-nil result, got %v, err %v", got, err)
	}
}

// A malformed vector anywhere in a batch must be rejected with
// ErrInvalidQuery before any worker starts: a panic inside a DoBatch
// worker goroutine would be unrecoverable and kill the whole process.
func TestBatchSearchRejectsMalformedQueryUpFront(t *testing.T) {
	ds := testDataset(t, 120)
	idx, err := Build(ds, Options{Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	for name, mangle := range map[string]func(q *Object){
		"nil vec":       func(q *Object) { q.Vec = nil },
		"truncated vec": func(q *Object) { q.Vec = q.Vec[:len(q.Vec)-1] },
	} {
		queries := make([]Object, 8)
		for i := range queries {
			queries[i] = ds.Objects[i]
		}
		mangle(&queries[5]) // not queries[0]: the whole batch must be vetted
		_, err := idx.DoBatch(BatchSearchRequest{Queries: queries, K: 3, Lambda: 0.5, Parallelism: 4})
		if !errors.Is(err, ErrInvalidQuery) || !strings.Contains(err.Error(), "batch query 5") {
			t.Fatalf("%s: err = %v, want ErrInvalidQuery naming batch query 5", name, err)
		}
	}
}
