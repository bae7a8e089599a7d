package cssi

import (
	"bytes"
	"sync"
	"testing"
)

func testDataset(t testing.TB, size int) *Dataset {
	t.Helper()
	ds, err := GenerateDataset(DatasetConfig{Kind: TwitterLike, Size: size, Dim: 24, Seed: 71})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestBuildRejectsEmpty(t *testing.T) {
	if _, err := Build(nil, Options{}); err == nil {
		t.Fatal("expected error for nil dataset")
	}
	if _, err := Build(&Dataset{}, Options{}); err == nil {
		t.Fatal("expected error for empty dataset")
	}
}

func TestEndToEnd(t *testing.T) {
	ds := testDataset(t, 800)
	idx, err := Build(ds, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if idx.Len() != 800 {
		t.Fatalf("Len = %d", idx.Len())
	}
	q := ds.Objects[13]
	exact := idx.Search(&q, 10, 0.5)
	if len(exact) != 10 {
		t.Fatalf("got %d results", len(exact))
	}
	if exact[0].ID != q.ID || exact[0].Dist != 0 {
		t.Fatalf("self-query nearest = %+v", exact[0])
	}
	approx := idx.SearchApprox(&q, 10, 0.5)
	if e := ErrorRate(exact, approx); e > 0.3 {
		t.Fatalf("approx error %v unexpectedly high for one query", e)
	}
}

func TestSearchStatsCounts(t *testing.T) {
	ds := testDataset(t, 500)
	idx, err := Build(ds, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if _, err := idx.Do(SearchRequest{Query: &ds.Objects[0], K: 5, Lambda: 0.5, Stats: &st}); err != nil {
		t.Fatal(err)
	}
	if st.VisitedObjects == 0 {
		t.Fatal("no visited objects recorded")
	}
	if st.VisitedObjects+st.InterPruned+st.IntraPruned != int64(ds.Len()) {
		t.Fatalf("accounting identity broken: %+v", st)
	}
}

func TestQueryValidation(t *testing.T) {
	ds := testDataset(t, 50)
	idx, err := Build(ds, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for name, fn := range map[string]func(){
		"nil query":  func() { idx.Search(nil, 5, 0.5) },
		"k=0":        func() { idx.Search(&ds.Objects[0], 0, 0.5) },
		"lambda=1.5": func() { idx.Search(&ds.Objects[0], 5, 1.5) },
		"lambda=-1":  func() { idx.SearchApprox(&ds.Objects[0], 5, -1) },
		"nil vec": func() {
			q := ds.Objects[0]
			q.Vec = nil
			idx.Search(&q, 5, 0.5)
		},
		"wrong-dim vec": func() {
			q := ds.Objects[0]
			q.Vec = q.Vec[:len(q.Vec)-1]
			idx.Search(&q, 5, 0.5)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestMaintenanceThroughFacade(t *testing.T) {
	ds := testDataset(t, 300)
	idx, err := Build(ds, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	nova := ds.Objects[0]
	nova.ID = 99999
	nova.X = 0.111
	if err := idx.Insert(nova); err != nil {
		t.Fatal(err)
	}
	if idx.Len() != 301 || idx.UpdatesSinceBuild() != 1 {
		t.Fatalf("after insert: len=%d updates=%d", idx.Len(), idx.UpdatesSinceBuild())
	}
	got, ok := idx.Object(99999)
	if !ok || got.X != 0.111 {
		t.Fatal("inserted object not retrievable")
	}
	nova.Y = 0.222
	if err := idx.Update(nova); err != nil {
		t.Fatal(err)
	}
	if err := idx.Delete(99999); err != nil {
		t.Fatal(err)
	}
	if idx.Len() != 300 {
		t.Fatalf("len after delete = %d", idx.Len())
	}
	if err := idx.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if idx.UpdatesSinceBuild() != 0 {
		t.Fatal("rebuild did not reset the update counter")
	}
}

// Concurrent read-only queries must be safe (documented API contract).
func TestConcurrentSearches(t *testing.T) {
	ds := testDataset(t, 600)
	idx, err := Build(ds, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				q := ds.Objects[(g*53+i*17)%ds.Len()]
				if got := idx.Search(&q, 5, 0.5); len(got) != 5 {
					t.Errorf("goroutine %d: got %d results", g, len(got))
					return
				}
				if got := idx.SearchApprox(&q, 5, 0.3); len(got) != 5 {
					t.Errorf("goroutine %d: approx got %d results", g, len(got))
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestExactPCAOption(t *testing.T) {
	ds := testDataset(t, 300)
	idx, err := Build(ds, Options{Seed: 6, ExactPCA: true})
	if err != nil {
		t.Fatal(err)
	}
	q := ds.Objects[2]
	if got := idx.Search(&q, 5, 0.5); len(got) != 5 {
		t.Fatalf("got %d results", len(got))
	}
}

func TestQueryFromFreeText(t *testing.T) {
	ds := testDataset(t, 400)
	idx, err := Build(ds, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// Encode a query document with the dataset's embedding model, the
	// way an application would embed user input.
	vec, ok := ds.Model.EncodeDocument(ds.Objects[10].Text)
	if !ok {
		t.Fatal("encoding failed")
	}
	q := Object{ID: 1 << 30, X: 0.5, Y: 0.5, Vec: vec}
	got := idx.Search(&q, 5, 0.0) // pure semantic: object 10 must rank first
	if got[0].ID != ds.Objects[10].ID {
		t.Fatalf("semantic self-match failed: nearest = %d", got[0].ID)
	}
}

// The paper's bounds are metric-independent (§4.2): the angular semantic
// option must keep CSSI exact through the public API.
func TestAngularSemanticOption(t *testing.T) {
	ds := testDataset(t, 500)
	idx, err := Build(ds, Options{Seed: 61, AngularSemantic: true})
	if err != nil {
		t.Fatal(err)
	}
	q := ds.Objects[5]
	got := idx.Search(&q, 5, 0.5)
	// acos introduces ~1e-9 rounding, so the self-distance is only
	// near-zero under the angular metric.
	if got[0].ID != q.ID || got[0].Dist > 1e-6 {
		t.Fatalf("self-query top hit %+v", got[0])
	}
	// Scale-invariance of the angular metric: doubling a query vector
	// must not change the ranking at λ=0.
	q2 := q
	q2.Vec = make([]float32, len(q.Vec))
	for i, v := range q.Vec {
		q2.Vec[i] = 2 * v
	}
	a := idx.Search(&q, 10, 0)
	b := idx.Search(&q2, 10, 0)
	for i := range a {
		if a[i].ID != b[i].ID {
			t.Fatalf("angular ranking not scale-invariant at position %d", i)
		}
	}
	// Persistence keeps the metric.
	var buf bytes.Buffer
	if err := idx.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	c := loaded.Search(&q, 10, 0)
	for i := range a {
		if a[i].Dist != c[i].Dist {
			t.Fatalf("angular metric lost across save/load at position %d", i)
		}
	}
}
