package keyword

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"repro/internal/text"
)

func buildTestFilter() *Filter {
	ids := []uint32{1, 2, 3, 4}
	texts := []string{
		"great coffee and cake",
		"coffee shop downtown",
		"pizza place with great view",
		"coffee coffee coffee", // duplicates collapse
	}
	return Build(ids, texts, 0)
}

func TestCandidatesSingleKeyword(t *testing.T) {
	f := buildTestFilter()
	ids, ok := f.Candidates([]string{"coffee"})
	if !ok {
		t.Fatal("unexpected not-ok")
	}
	want := []uint32{1, 2, 4}
	if len(ids) != len(want) {
		t.Fatalf("got %v", ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("got %v, want %v", ids, want)
		}
	}
}

func TestCandidatesANDSemantics(t *testing.T) {
	f := buildTestFilter()
	ids, ok := f.Candidates([]string{"great", "coffee"})
	if !ok || len(ids) != 1 || ids[0] != 1 {
		t.Fatalf("got %v ok=%v", ids, ok)
	}
	// No match.
	ids, ok = f.Candidates([]string{"pizza", "coffee"})
	if !ok || len(ids) != 0 {
		t.Fatalf("got %v ok=%v", ids, ok)
	}
	// Unknown word.
	ids, ok = f.Candidates([]string{"sushi"})
	if !ok || len(ids) != 0 {
		t.Fatalf("got %v ok=%v", ids, ok)
	}
}

func TestCandidatesRejectsStopWordsAndEmpty(t *testing.T) {
	f := buildTestFilter()
	if _, ok := f.Candidates([]string{"the"}); ok {
		t.Fatal("stop word should be rejected")
	}
	if _, ok := f.Candidates(nil); ok {
		t.Fatal("empty keyword list should be rejected")
	}
	if _, ok := f.Candidates([]string{"two words"}); ok {
		t.Fatal("multi-token keyword should be rejected")
	}
}

func TestCandidatesCaseInsensitive(t *testing.T) {
	f := buildTestFilter()
	ids, ok := f.Candidates([]string{"COFFEE"})
	if !ok || len(ids) != 3 {
		t.Fatalf("got %v ok=%v", ids, ok)
	}
}

func TestDocFrequency(t *testing.T) {
	f := buildTestFilter()
	if df := f.DocFrequency("coffee"); df != 3 {
		t.Fatalf("df(coffee) = %d", df)
	}
	if df := f.DocFrequency("sushi"); df != 0 {
		t.Fatalf("df(sushi) = %d", df)
	}
	if df := f.DocFrequency("the"); df != 0 {
		t.Fatalf("df(the) = %d (stop word)", df)
	}
}

func TestAddRemove(t *testing.T) {
	f := buildTestFilter()
	f.Add(10, "fresh coffee beans")
	ids, _ := f.Candidates([]string{"coffee"})
	if len(ids) != 4 || ids[3] != 10 {
		t.Fatalf("after add: %v", ids)
	}
	// Idempotent add of same id.
	f.Add(10, "fresh coffee beans")
	ids, _ = f.Candidates([]string{"coffee"})
	if len(ids) != 4 {
		t.Fatalf("duplicate add changed postings: %v", ids)
	}
	f.Remove(10, "fresh coffee beans")
	ids, _ = f.Candidates([]string{"coffee"})
	if len(ids) != 3 {
		t.Fatalf("after remove: %v", ids)
	}
	// Removing a non-member is harmless.
	f.Remove(999, "coffee")
	ids, _ = f.Candidates([]string{"coffee"})
	if len(ids) != 3 {
		t.Fatalf("phantom remove changed postings: %v", ids)
	}
}

func TestAddKeepsSorted(t *testing.T) {
	f := Build([]uint32{5}, []string{"alpha beta"}, 0)
	f.Add(2, "alpha")
	f.Add(9, "alpha")
	ids, _ := f.Candidates([]string{"alpha"})
	for i := 1; i < len(ids); i++ {
		if ids[i] < ids[i-1] {
			t.Fatalf("postings unsorted: %v", ids)
		}
	}
}

func TestPredicate(t *testing.T) {
	f := buildTestFilter()
	allow, ok := f.Predicate([]string{"coffee"})
	if !ok {
		t.Fatal("predicate rejected")
	}
	if !allow(1) || !allow(2) || allow(3) {
		t.Fatal("predicate membership wrong")
	}
	if _, ok := f.Predicate([]string{"the"}); ok {
		t.Fatal("stop-word predicate should be rejected")
	}
}

// Clone shares the directory; a write on either side — the source
// included, after it has been cloned — must copy the buckets it touches
// and leave the other side's answers alone, also for a term that is
// dropped from the directory and for one that is new to it.
func TestCloneIsolatesBothSides(t *testing.T) {
	f := buildTestFilter()
	c := f.Clone()
	f.Add(7, "pizza")
	c.Add(9, "coffee tea")
	c.Remove(3, "pizza place with great view")
	for _, tc := range []struct {
		side *Filter
		term string
		want []uint32
	}{
		{f, "coffee", []uint32{1, 2, 4}}, {f, "pizza", []uint32{3, 7}}, {f, "tea", []uint32{}},
		{c, "coffee", []uint32{1, 2, 4, 9}}, {c, "pizza", []uint32{}}, {c, "tea", []uint32{9}},
	} {
		got, ok := tc.side.Candidates([]string{tc.term})
		if !ok || len(got) != len(tc.want) {
			t.Fatalf("Candidates(%q) = %v, want %v", tc.term, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("Candidates(%q) = %v, want %v", tc.term, got, tc.want)
			}
		}
	}
}

// buildOnePass is the reference Build is checked against: one pass over
// the documents, one posting map, a fresh seen-set per text.
func buildOnePass(ids []uint32, texts []string) *Filter {
	postings := make(map[string][]uint32)
	for i, id := range ids {
		seen := map[string]struct{}{}
		for _, tok := range text.Tokenize(texts[i]) {
			if _, dup := seen[tok]; dup {
				continue
			}
			seen[tok] = struct{}{}
			postings[tok] = append(postings[tok], id)
		}
	}
	f := &Filter{buckets: make([]*bucket, numBuckets)}
	for tok, list := range postings {
		slices.Sort(list)
		f.setPostings(tok, list)
	}
	return f
}

// TestKeywordBuildChunkedMatchesOnePass: the chunked parallel Build
// leaves the same directory — bucket for bucket, entry for entry, id for
// id — as the one-pass reference, at every worker count, over a corpus
// that spans several chunks and carries duplicate ids, empty texts,
// stop-word-only texts and tokens repeated within a text.
func TestKeywordBuildChunkedMatchesOnePass(t *testing.T) {
	rng := rand.New(rand.NewPCG(28, 4))
	n := 3*buildChunkDocs + 17
	ids := make([]uint32, n)
	texts := make([]string, n)
	for i := range ids {
		ids[i] = uint32(rng.IntN(n / 2)) // about half the ids occur twice or more
		switch rng.IntN(8) {
		case 0:
			texts[i] = ""
		case 1:
			texts[i] = "the and of a"
		default:
			var words []string
			for w := 0; w < 1+rng.IntN(6); w++ {
				words = append(words, fmt.Sprintf("w%d", rng.IntN(300)))
			}
			words = append(words, words[0], "The")
			texts[i] = strings.Join(words, " ")
		}
	}
	want := buildOnePass(ids, texts)
	for _, workers := range []int{1, 2, 3, 8} {
		got := Build(ids, texts, workers)
		for b := range want.buckets {
			wb, gb := want.buckets[b], got.buckets[b]
			if (wb == nil) != (gb == nil) {
				t.Fatalf("workers %d: bucket %d nil-ness differs", workers, b)
			}
			if wb == nil {
				continue
			}
			if len(wb.entries) != len(gb.entries) {
				t.Fatalf("workers %d: bucket %d holds %d entries, want %d", workers, b, len(gb.entries), len(wb.entries))
			}
			for e := range wb.entries {
				if wb.entries[e].term != gb.entries[e].term || !slices.Equal(wb.entries[e].ids, gb.entries[e].ids) {
					t.Fatalf("workers %d: bucket %d entry %d = %q %v, want %q %v", workers, b, e,
						gb.entries[e].term, gb.entries[e].ids, wb.entries[e].term, wb.entries[e].ids)
				}
			}
		}
	}
	if got := Build(nil, nil, 0); len(got.buckets) != numBuckets {
		t.Fatalf("empty Build: %d buckets", len(got.buckets))
	}
}
