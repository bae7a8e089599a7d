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

// sameDirectory reports how got's directory differs from want's — bucket
// for bucket, entry for entry, id for id — or "" when it does not.
func sameDirectory(got, want *Filter) string {
	if len(got.buckets) != len(want.buckets) {
		return fmt.Sprintf("%d buckets, want %d", len(got.buckets), len(want.buckets))
	}
	for b := range want.buckets {
		wb, gb := want.buckets[b], got.buckets[b]
		if (wb == nil) != (gb == nil) {
			return fmt.Sprintf("bucket %d nil-ness differs", b)
		}
		if wb == nil {
			continue
		}
		if len(wb.entries) != len(gb.entries) {
			return fmt.Sprintf("bucket %d holds %d entries, want %d", b, len(gb.entries), len(wb.entries))
		}
		for e := range wb.entries {
			if wb.entries[e].term != gb.entries[e].term || !slices.Equal(wb.entries[e].ids, gb.entries[e].ids) {
				return fmt.Sprintf("bucket %d entry %d = %q %v, want %q %v", b, e,
					gb.entries[e].term, gb.entries[e].ids, wb.entries[e].term, wb.entries[e].ids)
			}
		}
	}
	return ""
}

// TestKeywordBuildChunkedMatchesOnePass: the chunked parallel Build
// leaves the same directory as the one-pass reference at every worker
// count, over a corpus that spans several chunks and carries duplicate
// ids, empty texts, stop-word-only, punctuation-only, digit-only,
// mixed-case, non-ASCII and invalid-UTF-8 texts, and tokens repeated
// within a text. At 2·minChunkDocs + 1 documents, Build at workers 3 and
// 8 deals them into chunks of minChunkDocs, minChunkDocs and one; build
// with smaller chunks merges many vocabularies.
func TestKeywordBuildChunkedMatchesOnePass(t *testing.T) {
	rng := rand.New(rand.NewPCG(28, 4))
	n := 2*minChunkDocs + 1
	odd := []string{
		"", "the and of a", "!!! --- ... ???", "123 4567 123 0",
		"Coffee COFFEE coFFee W12 w12 The", "Çafé ÇAFÉ straße İstanbul Ελλάδα 東京 w3",
		"ok\xffbad\xc3 w5 \xe2\x82 W5\xf0\x9f", "K \u212a k", // Kelvin sign lower-cases to k
	}
	ids := make([]uint32, n)
	texts := make([]string, n)
	for i := range ids {
		ids[i] = uint32(rng.IntN(n / 2)) // about half the ids occur twice or more
		if rng.IntN(4) == 0 {
			texts[i] = odd[rng.IntN(len(odd))]
			continue
		}
		var words []string
		for w := 0; w < 1+rng.IntN(6); w++ {
			words = append(words, fmt.Sprintf("w%d", rng.IntN(300)))
		}
		words = append(words, words[0], "The")
		texts[i] = strings.Join(words, " ")
	}
	want := buildOnePass(ids, texts)
	for _, workers := range []int{1, 2, 3, 8} {
		if diff := sameDirectory(Build(ids, texts, workers), want); diff != "" {
			t.Fatalf("workers %d: %s", workers, diff)
		}
	}
	if diff := sameDirectory(build(ids, texts, 2, 700), want); diff != "" {
		t.Fatalf("chunks of 700: %s", diff)
	}
	if got := Build(nil, nil, 0); len(got.buckets) != numBuckets {
		t.Fatalf("empty Build: %d buckets", len(got.buckets))
	}
}

// FuzzKeywordBuild checks Build ≡ buildOnePass on fuzzed texts (one per
// line of corpus) under fuzzed ids (unsorted, repeated), at workers 1
// and 2 and with chunks of one to three documents.
func FuzzKeywordBuild(f *testing.F) {
	f.Add("great coffee and cake\ncoffee shop\nthe\n\nCOFFEE Café", []byte{3, 1, 3, 0, 9})
	f.Add("w1 w2 w1\nw2\nw3 W3 w3\n\xff\xfe w1", []byte{7, 7, 2})
	f.Add("a\nb\nc\nd\ne\nf\ng", []byte{})
	f.Fuzz(func(t *testing.T, corpus string, idBytes []byte) {
		texts := strings.Split(corpus, "\n")
		ids := make([]uint32, len(texts))
		for i := range ids {
			ids[i] = uint32(len(ids) - i)
			if len(idBytes) > 0 {
				ids[i] = uint32(idBytes[i%len(idBytes)]) << (i % 3 * 8)
			}
		}
		want := buildOnePass(ids, texts)
		for _, workers := range []int{1, 2} {
			if diff := sameDirectory(Build(ids, texts, workers), want); diff != "" {
				t.Fatalf("workers %d: %s", workers, diff)
			}
			if diff := sameDirectory(build(ids, texts, workers, 1+len(texts)%3), want); diff != "" {
				t.Fatalf("workers %d, chunks of %d: %s", workers, 1+len(texts)%3, diff)
			}
		}
	})
}

// TestAddAllocsOnePostingListPerToken pins Add's allocations: one new
// posting list per distinct content token of the text, none for a
// repeated token, a stop word or the scan itself.
func TestAddAllocsOnePostingListPerToken(t *testing.T) {
	f := buildTestFilter()
	id := uint32(100)
	allocs := testing.AllocsPerRun(50, func() {
		f.Add(id, "coffee and great coffee, the great view")
		id++
	})
	if allocs != 3 {
		t.Fatalf("Add allocated %v times per call, want 3 (coffee, great, view)", allocs)
	}
	ids, _ := f.Candidates([]string{"view"})
	if len(ids) != 1+51 {
		t.Fatalf("view lists %d ids, want 52", len(ids))
	}
}
