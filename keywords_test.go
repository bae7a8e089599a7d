package cssi

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/knn"
)

func keywordFixture(t *testing.T) (*Dataset, *Index) {
	t.Helper()
	ds := testDataset(t, 800)
	idx := mustBuild(t, ds, Options{Seed: 41})
	idx.EnableKeywordFilter()
	return ds, idx
}

// TestSearchWithKeywordsMatchesBruteForce holds both arms of the one
// keyword read — the direct evaluation of a selective term's candidates
// and the exact read under a broad term's row predicate — to a
// brute-force filter over the live objects, rank by rank with ties by
// ID: on a bare index and on sharded ones at P = 1, 2 and 4, for
// k ∈ {1, 10, n+5} and λ ∈ {0, 0.5, 1}, as built, after writes (the
// overlay on a sharded index, a bare one's own) and after Compact.
func TestSearchWithKeywordsMatchesBruteForce(t *testing.T) {
	ds, err := GenerateDataset(DatasetConfig{Kind: TwitterLike, Size: 12000, Dim: 24, Seed: 71})
	if err != nil {
		t.Fatal(err)
	}
	bare := mustBuild(t, ds, Options{Seed: 44})
	bare.EnableKeywordFilter()
	type target struct {
		name string
		x    doer
	}
	targets := []target{{"Index", bare}}
	for _, p := range []int{1, 2, 4} {
		s := mustBuildSharded(t, ds, p, Options{Seed: 44})
		s.EnableKeywordFilter()
		targets = append(targets, target{fmt.Sprintf("Sharded/P=%d", p), s})
	}
	// The broad term is over the cap at every P, the selective one under
	// it at P = 1, with room for the writes below either way.
	broad, selective := ds.Model.Vocab.Words[0], ""
	for _, w := range ds.Model.Vocab.Words {
		if df := bare.KeywordDocFrequency(w); df >= 100 && df <= keywordBruteForceCap/2 {
			selective = w
			break
		}
	}
	if df := bare.KeywordDocFrequency(broad); selective == "" || df <= 4*keywordBruteForceCap+200 {
		t.Fatalf("no usable terms: broad %q in %d docs, selective %q", broad, df, selective)
	}
	live := make(map[uint32]Object, ds.Len())
	for _, o := range ds.Objects {
		live[o.ID] = o
	}
	check := func(state string) {
		for _, word := range []string{selective, broad} {
			var holders []Object
			for _, o := range live {
				if containsWord(o.Text, word) {
					holders = append(holders, o)
				}
			}
			for qi := 0; qi < 3; qi++ {
				q := ds.Objects[(qi*1409+11)%ds.Len()]
				for _, lambda := range []float64{0, 0.5, 1} {
					want := make([]Result, len(holders))
					for i := range holders {
						want[i] = Result{ID: holders[i].ID, Dist: bare.space.Distance(nil, lambda, &q, &holders[i])}
					}
					sort.Slice(want, func(a, b int) bool {
						return want[a].Dist < want[b].Dist || want[a].Dist == want[b].Dist && want[a].ID < want[b].ID
					})
					for _, tg := range targets {
						for _, k := range []int{1, 10, ds.Len() + 5} {
							ctx := fmt.Sprintf("%s %s %q q%d λ=%v k=%d", tg.name, state, word, qi, lambda, k)
							got := mustDo(tg.x, SearchRequest{Query: &q, K: k, Lambda: lambda, Keywords: []string{word}})
							equalResults(t, ctx, want[:min(k, len(want))], got)
						}
					}
				}
			}
		}
	}
	check("built")
	for _, op := range overlayOps(ds, 120) {
		for _, tg := range targets {
			var err error
			if s, ok := tg.x.(*ShardedIndex); ok {
				err = s.ApplyBatch([]Op{op})
			} else {
				err = writeBare(bare, op)
			}
			if err != nil {
				t.Fatalf("%s: %v", tg.name, err)
			}
		}
		switch op.Kind {
		case OpDelete:
			delete(live, op.ID)
		default:
			live[op.Object.ID] = op.Object
		}
	}
	check("written")
	for _, tg := range targets[1:] {
		s := tg.x.(*ShardedIndex)
		if snapshot(s).DeltaOps() == 0 {
			t.Fatalf("%s: the writes left no overlay", tg.name)
		}
		if err := s.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	check("compacted")
}

// An exact read under a keyword predicate is cut by the request's budget
// like any read: a broad keyword with an already-expired budget returns
// an admissible prefix — keyword-holding objects at their true distances,
// in order — flagged Partial, and is not cached.
func TestSearchWithKeywordsBudgetPartial(t *testing.T) {
	ds, err := GenerateDataset(DatasetConfig{Kind: TwitterLike, Size: 6000, Dim: 24, Seed: 71})
	if err != nil {
		t.Fatal(err)
	}
	s := mustBuildSharded(t, ds, 2, Options{Seed: 44})
	s.EnableKeywordFilter()
	s.EnableResultCache(64)
	word := ds.Model.Vocab.Words[0]
	q := ds.Objects[9]
	full := mustDo(s, SearchRequest{Query: &q, K: 10, Lambda: 0.5, Keywords: []string{word}, Cache: CacheOff})
	if len(full) != 10 {
		t.Fatalf("unbudgeted: %d results", len(full))
	}
	space := s.shards[0].cur.Load().space
	// The second round finds nothing cached: a partial answer never is.
	for round := 0; round < 2; round++ {
		var meta ResponseMeta
		got, err := s.Do(SearchRequest{Query: &q, K: 10, Lambda: 0.5, Keywords: []string{word}, Deadline: time.Nanosecond, Meta: &meta})
		if err != nil {
			t.Fatal(err)
		}
		if !meta.Partial || meta.CacheHit {
			t.Fatalf("round %d, expired budget: meta %+v, want Partial and no cache hit", round, meta)
		}
		for i, r := range got {
			o, ok := s.Object(r.ID)
			if !ok || !containsWord(o.Text, word) {
				t.Fatalf("partial result %d (%d) lacks keyword %q", i, r.ID, word)
			}
			if dist := space.Distance(nil, 0.5, &q, &o); r.Dist != dist {
				t.Fatalf("partial result %d: %+v, true distance %v", i, r, dist)
			}
			// The i-th of a subset is never closer than the true i-th.
			if r.Dist < full[i].Dist || i > 0 && !knn.Less(got[i-1], r) {
				t.Fatalf("partial answer %v is no prefix-admissible answer against %v", got, full)
			}
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

// The row predicate of a broad keyword request admits exactly the
// candidates of every snapshot, in both of its representations — the
// bitmap over a dense ID span and the sorted IDs of a sparse one.
func TestKeywordIDSet(t *testing.T) {
	for name, c := range map[string]struct {
		rows [][]uint32
		bits bool
	}{
		"dense":              {[][]uint32{{3, 4, 9, 70, 71}}, true},
		"dense/shards":       {[][]uint32{{64, 130}, {}, {65, 127, 128}}, true},
		"sparse":             {[][]uint32{{0, 5, 1 << 20}}, false},
		"sparse/shards":      {[][]uint32{{7, ^uint32(0)}, {0, 500000}}, false},
		"sparse/interleaved": {[][]uint32{{3, 900_000, 1 << 30}, {5, 77, 2_000_000_000, ^uint32(0)}, {}, {1, 4, 1 << 29}}, false},
		"sparse/one list":    {[][]uint32{{}, {10, 1 << 24, 1 << 31}, {}}, false},
	} {
		total := 0
		in := map[uint32]bool{}
		for _, ids := range c.rows {
			total += len(ids)
			for _, id := range ids {
				in[id] = true
			}
		}
		s := newIDSet(c.rows, total)
		if (s.bits != nil) != c.bits {
			t.Errorf("%s: bitmap %v, want %v", name, s.bits != nil, c.bits)
		}
		want := slices.Concat(c.rows...)
		slices.Sort(want)
		if s.bits == nil && !slices.Equal(s.ids, want) {
			t.Errorf("%s: merged IDs %v, want the sorted concatenation %v", name, s.ids, want)
		}
		probes := []uint32{0, 1, 2, 63, 129, 131, 1<<20 - 1, 1<<20 + 1, ^uint32(0) - 1, ^uint32(0)}
		for id := range in {
			probes = append(probes, id, id-1, id+1)
		}
		for _, id := range probes {
			if s.has(id) != in[id] {
				t.Errorf("%s: has(%d) = %v, want %v", name, id, s.has(id), in[id])
			}
		}
	}
}
