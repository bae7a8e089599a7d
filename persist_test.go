package cssi

import (
	"bytes"
	"testing"
)

func TestFacadeSaveLoadRoundTrip(t *testing.T) {
	ds := testDataset(t, 400)
	idx := mustBuild(t, ds, Options{Seed: 51})
	var buf bytes.Buffer
	if err := idx.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != idx.Len() || loaded.NumClusters() != idx.NumClusters() {
		t.Fatalf("shape mismatch after load: %d/%d vs %d/%d",
			loaded.Len(), loaded.NumClusters(), idx.Len(), idx.NumClusters())
	}
	q := ds.Objects[17]
	a := mustDo(idx, SearchRequest{Query: &q, K: 10, Lambda: 0.5})
	b := mustDo(loaded, SearchRequest{Query: &q, K: 10, Lambda: 0.5})
	for i := range a {
		if a[i].Dist != b[i].Dist {
			t.Fatalf("result %d differs after load", i)
		}
	}
	// The loaded index supports the whole surface: approx, range, box,
	// keyword filtering, maintenance.
	loaded.EnableKeywordFilter()
	if got := mustDo(loaded, SearchRequest{Query: &q, K: 5, Lambda: 0.5, Approx: true}); len(got) != 5 {
		t.Fatal("approx search failed on loaded index")
	}
	r := 0.1
	if got := mustDo(loaded, SearchRequest{Query: &q, K: 10, Lambda: 0.5, Radius: &r}); len(got) == 0 {
		t.Fatal("range search failed on loaded index")
	}
	nova := q
	nova.ID = 555555
	if err := loaded.Insert(nova); err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != 401 {
		t.Fatalf("Len after insert = %d", loaded.Len())
	}
}

func TestLoadIndexRejectsGarbage(t *testing.T) {
	if _, err := LoadIndex(bytes.NewReader([]byte("nonsense"))); err == nil {
		t.Fatal("expected error")
	}
}
