package cssi

import (
	"errors"
	"strings"
	"testing"
)

func TestRangeSearchFacade(t *testing.T) {
	ds := testDataset(t, 600)
	idx, err := Build(ds, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	q := ds.Objects[5]
	var st Stats
	got := idx.RangeSearchStats(&q, 0.08, 0.5, &st)
	if len(got) == 0 {
		t.Fatal("range search around an existing object returned nothing")
	}
	prev := -1.0
	for _, r := range got {
		if r.Dist > 0.08 {
			t.Fatalf("result outside radius: %v", r.Dist)
		}
		if r.Dist < prev {
			t.Fatal("results not sorted")
		}
		prev = r.Dist
	}
	if st.VisitedObjects+st.InterPruned+st.IntraPruned != int64(ds.Len()) {
		t.Fatalf("accounting identity broken: %+v", st)
	}
}

func TestRangeSearchPanicsOnNegativeRadius(t *testing.T) {
	ds := testDataset(t, 50)
	idx, _ := Build(ds, Options{Seed: 9})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	idx.RangeSearch(&ds.Objects[0], -1, 0.5)
}

func TestSearchInBoxFacade(t *testing.T) {
	ds := testDataset(t, 600)
	idx, err := Build(ds, Options{Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	q := ds.Objects[5]
	got := idx.SearchInBox(&q, 0.2, 0.2, 0.8, 0.8, 5)
	for _, r := range got {
		o, ok := idx.Object(r.ID)
		if !ok {
			t.Fatalf("result %d not live", r.ID)
		}
		if o.X < 0.2 || o.X > 0.8 || o.Y < 0.2 || o.Y > 0.8 {
			t.Fatalf("result %d outside window: (%v,%v)", r.ID, o.X, o.Y)
		}
	}
}

func TestSearchInBoxPanicsOnInvertedWindow(t *testing.T) {
	ds := testDataset(t, 50)
	idx, _ := Build(ds, Options{Seed: 10})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	idx.SearchInBox(&ds.Objects[0], 0.8, 0.2, 0.2, 0.8, 5)
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
		seq := idx.Search(&queries[qi], 10, 0.5)
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

func TestBatchSearchApprox(t *testing.T) {
	ds := testDataset(t, 400)
	idx, err := Build(ds, Options{Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	queries := ds.SampleQueries(10, 3)
	batch, err := idx.DoBatch(BatchSearchRequest{Queries: queries, K: 5, Lambda: 0.5, Approx: true})
	if err != nil {
		t.Fatal(err)
	}
	for qi, rs := range batch {
		if len(rs) != 5 {
			t.Fatalf("query %d returned %d results", qi, len(rs))
		}
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
// ErrInvalidQuery before any worker starts: a panic inside a SearchBatch
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
