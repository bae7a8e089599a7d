package cssi

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/obs"
)

func testDataset(t testing.TB, size int) *Dataset {
	t.Helper()
	ds, err := GenerateDataset(DatasetConfig{Kind: TwitterLike, Size: size, Dim: 24, Seed: 71})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// mustDo answers a request the test knows to be valid. An error panics,
// so it serves on any goroutine.
func mustDo(x doer, req SearchRequest) []Result {
	res, err := x.Do(req)
	if err != nil {
		panic(err)
	}
	return res
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
	exact := mustDo(idx, SearchRequest{Query: &q, K: 10, Lambda: 0.5})
	if len(exact) != 10 {
		t.Fatalf("got %d results", len(exact))
	}
	if exact[0].ID != q.ID || exact[0].Dist != 0 {
		t.Fatalf("self-query nearest = %+v", exact[0])
	}
	approx := mustDo(idx, SearchRequest{Query: &q, K: 10, Lambda: 0.5, Approx: true})
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

	// Overlay states keep it too — a bare index's own overlay and the
	// shards' at P = 1 and 2, tombstones on base rows among the writes —
	// in the read's counters and in every shard span of a trace.
	targets := []struct {
		name string
		x    interface {
			doer
			Len() int
		}
	}{{"bare", idx}, {"P=1", mustBuildSharded(t, ds, 1, Options{Seed: 2})}, {"P=2", mustBuildSharded(t, ds, 2, Options{Seed: 2})}}
	for _, op := range overlayOps(ds, 80) {
		for _, tg := range targets {
			var err error
			if s, ok := tg.x.(*ShardedIndex); ok {
				err = s.ApplyBatch([]Op{op})
			} else {
				err = writeBare(idx, op)
			}
			if err != nil {
				t.Fatalf("%s: %v", tg.name, err)
			}
		}
	}
	charged := func(st *Stats) int64 { return st.VisitedObjects + st.InterPruned + st.IntraPruned }
	for _, tg := range targets {
		for qi := 0; qi < 4; qi++ {
			q := ds.Objects[qi*41]
			for _, lambda := range []float64{0, 0.5, 1} {
				var st Stats
				var tr SearchTrace
				mustDo(tg.x, SearchRequest{Query: &q, K: 10, Lambda: lambda, Stats: &st})
				mustDo(tg.x, SearchRequest{Query: &q, K: 10, Lambda: lambda, Trace: &tr})
				if got := charged(&st); got != int64(tg.x.Len()) {
					t.Fatalf("%s q%d λ=%v: counters charge %d rows of %d live", tg.name, qi, lambda, got, tg.x.Len())
				}
				for _, sp := range tr.Shards {
					if got := charged(&sp.Stats.Stats); got != int64(sp.Objects) {
						t.Fatalf("%s q%d λ=%v: shard %d span charges %d rows of %d live", tg.name, qi, lambda, sp.Shard, got, sp.Objects)
					}
				}
			}
		}
	}
}

func TestQueryValidation(t *testing.T) {
	ds := testDataset(t, 50)
	idx, err := Build(ds, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	short := ds.Objects[0]
	short.Vec = short.Vec[:len(short.Vec)-1]
	for name, req := range map[string]SearchRequest{
		"nil query":     {Query: nil, K: 5, Lambda: 0.5},
		"k=0":           {Query: &ds.Objects[0], K: 0, Lambda: 0.5},
		"lambda=1.5":    {Query: &ds.Objects[0], K: 5, Lambda: 1.5},
		"lambda=-1":     {Query: &ds.Objects[0], K: 5, Lambda: -1, Approx: true},
		"nil vec":       {Query: &Object{X: 0.5, Y: 0.5}, K: 5, Lambda: 0.5},
		"wrong-dim vec": {Query: &short, K: 5, Lambda: 0.5},
	} {
		if res, err := idx.Do(req); err == nil || res != nil {
			t.Fatalf("%s: res %v, err %v, want an error and no results", name, res, err)
		}
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

// Rebuild swaps in rebuildFresh's index: answers equal those of a twin's
// fresh rebuild, and the installed trace sink and the snapshot ID stay.
func TestRebuildSwapsInFreshIndex(t *testing.T) {
	ds := testDataset(t, 400)
	idx, twin := mustBuild(t, ds, Options{Seed: 6}), mustBuild(t, ds, Options{Seed: 6})
	for _, x := range []*Index{idx, twin} {
		for i := 0; i < 30; i++ {
			if err := x.Delete(ds.Objects[i*7].ID); err != nil {
				t.Fatal(err)
			}
		}
	}
	sink := obs.NewSink(obs.SinkConfig{BufferSize: 16})
	idx.SetTraceSink(sink)
	idx.snapID = 7
	if err := idx.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if idx.TraceSink() != sink || idx.snapID != 7 {
		t.Fatalf("after Rebuild: sink kept %v, snapshot ID %d", idx.TraceSink() == sink, idx.snapID)
	}
	fresh, err := twin.rebuildFresh()
	if err != nil {
		t.Fatal(err)
	}
	for qi := 0; qi < 8; qi++ {
		q := ds.Objects[(qi*41+3)%ds.Len()]
		for _, lambda := range []float64{0, 0.5, 1} {
			req := SearchRequest{Query: &q, K: 10, Lambda: lambda}
			equalResults(t, "rebuilt vs fresh", mustDo(fresh, req), mustDo(idx, req))
		}
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
				if got := mustDo(idx, SearchRequest{Query: &q, K: 5, Lambda: 0.5}); len(got) != 5 {
					t.Errorf("goroutine %d: got %d results", g, len(got))
					return
				}
				if got := mustDo(idx, SearchRequest{Query: &q, K: 5, Lambda: 0.3, Approx: true}); len(got) != 5 {
					t.Errorf("goroutine %d: approx got %d results", g, len(got))
					return
				}
			}
		}(g)
	}
	wg.Wait()
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
	got := mustDo(idx, SearchRequest{Query: &q, K: 5, Lambda: 0.0}) // pure semantic: object 10 must rank first
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
	got := mustDo(idx, SearchRequest{Query: &q, K: 5, Lambda: 0.5})
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
	a := mustDo(idx, SearchRequest{Query: &q, K: 10, Lambda: 0})
	b := mustDo(idx, SearchRequest{Query: &q2, K: 10, Lambda: 0})
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
	c := mustDo(loaded, SearchRequest{Query: &q, K: 10, Lambda: 0})
	for i := range a {
		if a[i].Dist != c[i].Dist {
			t.Fatalf("angular metric lost across save/load at position %d", i)
		}
	}
}
