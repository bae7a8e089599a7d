package cssi

import (
	"errors"
	"strings"
	"testing"
)

func keywordFixture(t *testing.T) (*Dataset, *Index) {
	t.Helper()
	ds := testDataset(t, 800)
	idx := mustBuild(t, ds, Options{Seed: 41})
	idx.EnableKeywordFilter()
	return ds, idx
}

func TestSearchWithKeywordsMatchesBruteForce(t *testing.T) {
	ds, idx := keywordFixture(t)
	// Use a word that actually occurs.
	word := strings.Fields(ds.Objects[25].Text)[0]
	q := ds.Objects[3]
	got := mustDo(idx, SearchRequest{Query: &q, K: 5, Lambda: 0.5, Keywords: []string{word}})
	// Brute force over all objects containing the word.
	var want []Result
	for i := range ds.Objects {
		if !containsWord(ds.Objects[i].Text, word) {
			continue
		}
		want = append(want, Result{ID: ds.Objects[i].ID, Dist: idx.space.Distance(nil, 0.5, &q, &ds.Objects[i])})
	}
	sortByDistID(want)
	if len(want) > 5 {
		want = want[:5]
	}
	if len(got) != len(want) {
		t.Fatalf("got %d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID || got[i].Dist != want[i].Dist {
			t.Fatalf("result %d: %+v vs %+v", i, got[i], want[i])
		}
	}
	// Every result must contain the keyword.
	for _, r := range got {
		o, _ := idx.Object(r.ID)
		if !containsWord(o.Text, word) {
			t.Fatalf("result %d lacks keyword %q: %q", r.ID, word, o.Text)
		}
	}
}

func containsWord(text, word string) bool {
	for _, w := range strings.Fields(text) {
		if w == word {
			return true
		}
	}
	return false
}

func sortByDistID(rs []Result) {
	for i := 1; i < len(rs); i++ {
		for j := i; j > 0; j-- {
			a, b := rs[j], rs[j-1]
			if a.Dist < b.Dist || (a.Dist == b.Dist && a.ID < b.ID) {
				rs[j], rs[j-1] = rs[j-1], rs[j]
			} else {
				break
			}
		}
	}
}

func TestSearchWithKeywordsUnusableList(t *testing.T) {
	_, idx := keywordFixture(t)
	q := Object{Vec: make([]float32, 24)}
	if _, err := idx.Do(SearchRequest{Query: &q, K: 5, Lambda: 0.5, Keywords: []string{"the"}}); !errors.Is(err, ErrUnusableKeywords) {
		t.Fatalf("stop-word-only keywords: err %v, want ErrUnusableKeywords", err)
	}
}

func TestSearchWithKeywordsNoMatch(t *testing.T) {
	ds, idx := keywordFixture(t)
	q := ds.Objects[0]
	if got := mustDo(idx, SearchRequest{Query: &q, K: 5, Lambda: 0.5, Keywords: []string{"zzznotaword"}}); len(got) != 0 {
		t.Fatalf("got %v, want no results", got)
	}
}

func TestSearchWithKeywordsPanicsWhenDisabled(t *testing.T) {
	ds := testDataset(t, 50)
	idx := mustBuild(t, ds, Options{Seed: 42})
	defer func() {
		err, _ := recover().(error)
		if !errors.Is(err, ErrKeywordFilterDisabled) {
			t.Fatalf("panic %v, want ErrKeywordFilterDisabled", err)
		}
	}()
	mustDo(idx, SearchRequest{Query: &ds.Objects[0], K: 3, Lambda: 0.5, Keywords: []string{"word"}})
}

func TestKeywordFilterMaintenance(t *testing.T) {
	ds, idx := keywordFixture(t)
	if !idx.KeywordFilterEnabled() {
		t.Fatal("filter should be enabled")
	}
	// Insert an object with a fresh unique word.
	nova := ds.Objects[0]
	nova.ID = 777777
	nova.Text = nova.Text + " wzzzspecial"
	// Manually register the new word in the vocabulary? Not needed: the
	// filter tokenizes raw text; the vector stays the old one.
	if err := idx.Insert(nova); err != nil {
		t.Fatal(err)
	}
	if df := idx.KeywordDocFrequency("wzzzspecial"); df != 1 {
		t.Fatalf("df after insert = %d", df)
	}
	got := mustDo(idx, SearchRequest{Query: &nova, K: 3, Lambda: 0.5, Keywords: []string{"wzzzspecial"}})
	if len(got) != 1 || got[0].ID != nova.ID {
		t.Fatalf("keyword search after insert: %v", got)
	}
	// Delete removes it from the postings.
	if err := idx.Delete(nova.ID); err != nil {
		t.Fatal(err)
	}
	if df := idx.KeywordDocFrequency("wzzzspecial"); df != 0 {
		t.Fatalf("df after delete = %d", df)
	}
	// Update changes the indexed text.
	victim, _ := idx.Object(ds.Objects[10].ID)
	upd := *victim
	upd.Text = "wqqqanother " + upd.Text
	if err := idx.Update(upd); err != nil {
		t.Fatal(err)
	}
	if df := idx.KeywordDocFrequency("wqqqanother"); df != 1 {
		t.Fatalf("df after update = %d", df)
	}
}

func TestKeywordFilterSurvivesRebuild(t *testing.T) {
	ds, idx := keywordFixture(t)
	word := strings.Fields(ds.Objects[5].Text)[0]
	before := idx.KeywordDocFrequency(word)
	if err := idx.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if !idx.KeywordFilterEnabled() {
		t.Fatal("filter lost across rebuild")
	}
	if after := idx.KeywordDocFrequency(word); after != before {
		t.Fatalf("df changed across rebuild: %d -> %d", before, after)
	}
}

func TestKeywordDocFrequencyDisabled(t *testing.T) {
	ds := testDataset(t, 30)
	idx := mustBuild(t, ds, Options{Seed: 43})
	if idx.KeywordDocFrequency("anything") != 0 {
		t.Fatal("disabled filter should report 0")
	}
}

// A very common keyword exercises the filtered-index path (candidates
// above the brute-force cap).
func TestSearchWithKeywordsBroadKeyword(t *testing.T) {
	ds, err := GenerateDataset(DatasetConfig{Kind: TwitterLike, Size: 4000, Dim: 24, Seed: 71})
	if err != nil {
		t.Fatal(err)
	}
	idx := mustBuild(t, ds, Options{Seed: 44})
	idx.EnableKeywordFilter()
	// Rank-0 word appears in a large share of Zipf-sampled documents.
	word := ds.Model.Vocab.Words[0]
	if idx.KeywordDocFrequency(word) <= keywordBruteForceCap {
		t.Fatalf("word %q not broad enough (%d docs) — test setup invalid", word, idx.KeywordDocFrequency(word))
	}
	q := ds.Objects[9]
	got := mustDo(idx, SearchRequest{Query: &q, K: 10, Lambda: 0.5, Keywords: []string{word}})
	if len(got) != 10 {
		t.Fatalf("broad keyword search: %d results", len(got))
	}
	for _, r := range got {
		o, _ := idx.Object(r.ID)
		if !containsWord(o.Text, word) {
			t.Fatalf("result lacks keyword: %q", o.Text)
		}
	}
	// Must agree with unfiltered brute force restricted to matches.
	var want []Result
	for i := range ds.Objects {
		if containsWord(ds.Objects[i].Text, word) {
			want = append(want, Result{ID: ds.Objects[i].ID, Dist: idx.space.Distance(nil, 0.5, &q, &ds.Objects[i])})
		}
	}
	sortByDistID(want)
	for i := 0; i < 10; i++ {
		if got[i].Dist != want[i].Dist {
			t.Fatalf("broad result %d: %v vs %v", i, got[i].Dist, want[i].Dist)
		}
	}
}
