// Package keyword provides an inverted index over object texts for
// boolean keyword filtering. The paper positions CSSI against classic
// spatial-keyword search (§2), which matches query keywords exactly;
// combining the two — exact containment of required terms plus semantic
// ranking of the survivors — is a natural hybrid this package enables
// (used by Index.SearchWithKeywords in the public API).
package keyword

import (
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/par"
	"repro/internal/text"
)

// Filter is an inverted index from token to the sorted list of object
// IDs whose text contains it.
//
// The directory is split into numBuckets hash buckets, and mutations are
// copy-on-write at two levels: Add and Remove install freshly built
// posting lists instead of editing in place, and they edit a bucket in
// place only when this filter made it — a bucket inherited through Clone
// is copied first, one bucket per touched term. Clone therefore copies
// numBuckets pointers and nothing else: its cost depends neither on the
// vocabulary nor on how many terms were touched since the last clone. A
// snapshot-publishing writer mutates its clone while readers of earlier
// clones keep scanning the original buckets and lists — the lazy
// discipline the core index uses for its hybrid clusters (cowHybrid).
// Posting-list cost is unchanged from an in-place edit, which shifts the
// list's tail anyway: O(len) per touched term.
type Filter struct {
	buckets []*bucket // numBuckets entries; nil = no term hashes here
	// own names the buckets this filter may edit in place: those whose
	// owner field equals it. nil owns nothing. Clone clears it on the
	// source too, so neither side can reach the other through a bucket
	// they share; it is atomic only because two goroutines may clone one
	// published filter at once (a writer and a background compaction).
	own atomic.Pointer[ownership]
}

// numBuckets is the fixed directory fan-out (a power of two): 8 KiB of
// pointers per Clone, and a handful of terms per bucket copy at the
// vocabularies this repository generates (thousands of terms).
const numBuckets = 1024

// ownership is an identity token; it has a field because distinct
// zero-size allocations may share an address.
type ownership struct{ _ byte }

// bucket holds the terms hashing to one directory slot, sorted by term.
type bucket struct {
	owner   *ownership
	entries []entry
}

type entry struct {
	term string
	ids  []uint32 // sorted, never empty, never edited in place
}

// bucketOf hashes a term to its directory slot (FNV-1a, folded).
func bucketOf(term string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(term); i++ {
		h = (h ^ uint32(term[i])) * 16777619
	}
	return (h ^ h>>16) & (numBuckets - 1)
}

// find returns the position of term in the bucket's sorted entries and
// whether it is there.
func (b *bucket) find(term string) (int, bool) {
	if b == nil {
		return 0, false
	}
	return sort.Find(len(b.entries), func(i int) int { return strings.Compare(term, b.entries[i].term) })
}

// postings returns the posting list of a normalized term (nil if none).
func (f *Filter) postings(term string) []uint32 {
	b := f.buckets[bucketOf(term)]
	if i, ok := b.find(term); ok {
		return b.entries[i].ids
	}
	return nil
}

// owned returns term's bucket ready for an in-place edit: the bucket
// itself when this filter made it, otherwise a private copy (with room
// for one more entry) installed in its stead.
func (f *Filter) owned(term string) *bucket {
	own := f.own.Load()
	if own == nil {
		own = new(ownership)
		f.own.Store(own)
	}
	slot := &f.buckets[bucketOf(term)]
	b := *slot
	if b != nil && b.owner == own {
		return b
	}
	nb := &bucket{owner: own}
	if b != nil {
		nb.entries = append(make([]entry, 0, len(b.entries)+1), b.entries...)
	}
	*slot = nb
	return nb
}

// setPostings installs ids as term's posting list; an empty list drops
// the term from the directory.
func (f *Filter) setPostings(term string, ids []uint32) {
	b := f.owned(term)
	i, ok := b.find(term)
	switch {
	case ok && len(ids) == 0:
		b.entries = append(b.entries[:i], b.entries[i+1:]...)
	case ok:
		b.entries[i].ids = ids
	case len(ids) > 0:
		b.entries = append(b.entries, entry{})
		copy(b.entries[i+1:], b.entries[i:])
		b.entries[i] = entry{term: term, ids: ids}
	}
}

// Clone returns a filter that shares every bucket and posting list with
// f, in O(numBuckets) whatever the vocabulary: Add/Remove on either one
// never affect the other. f may be serving readers meanwhile.
func (f *Filter) Clone() *Filter {
	f.own.Store(nil)
	return &Filter{buckets: append([]*bucket(nil), f.buckets...)}
}

// buildChunkDocs is how many documents one tokenising task of Build
// takes. The chunking is fixed, not derived from the worker count, so the
// merge sees the same chunks in the same order however many goroutines
// filled them.
const buildChunkDocs = 8192

// Build tokenizes every (id, text) pair and constructs the postings, on
// up to workers goroutines (0 = GOMAXPROCS). Tokens are normalized
// exactly like query keywords (lower-cased, stop-words dropped). Each
// chunk of documents collects its own term → ids lists in document
// order; concatenating a term's lists in chunk order gives the list one
// pass over all documents would, so the filter does not depend on the
// worker count.
func Build(ids []uint32, texts []string, workers int) *Filter {
	// chunkList is one term's ids within a chunk; doc is the last document
	// position that added to it, which drops a token repeated in a text.
	type chunkList struct {
		ids []uint32
		doc int
	}
	chunks := make([]map[string]*chunkList, (len(ids)+buildChunkDocs-1)/buildChunkDocs)
	par.For(len(chunks), workers, func(lo, hi int) {
		for c := lo; c < hi; c++ {
			lists := make(map[string]*chunkList)
			for i := c * buildChunkDocs; i < min((c+1)*buildChunkDocs, len(ids)); i++ {
				for _, tok := range text.Tokenize(texts[i]) {
					l := lists[tok]
					if l == nil {
						l = &chunkList{doc: -1}
						lists[tok] = l
					}
					if l.doc != i {
						l.doc = i
						l.ids = append(l.ids, ids[i])
					}
				}
			}
			chunks[c] = lists
		}
	})
	// Size every term's list, then fill it chunk after chunk.
	slot := make(map[string]int)
	var terms []string
	var sizes []int
	for _, lists := range chunks {
		for tok, l := range lists {
			t, ok := slot[tok]
			if !ok {
				t = len(terms)
				slot[tok] = t
				terms = append(terms, tok)
				sizes = append(sizes, 0)
			}
			sizes[t] += len(l.ids)
		}
	}
	postings := make([][]uint32, len(terms))
	for t, n := range sizes {
		postings[t] = make([]uint32, 0, n)
	}
	for _, lists := range chunks {
		for tok, l := range lists {
			t := slot[tok]
			postings[t] = append(postings[t], l.ids...)
		}
	}
	par.For(len(postings), workers, func(lo, hi int) {
		for _, list := range postings[lo:hi] {
			slices.Sort(list)
		}
	})
	f := &Filter{buckets: make([]*bucket, numBuckets)}
	for t, tok := range terms {
		f.setPostings(tok, postings[t])
	}
	return f
}

// Add indexes one more object (for maintenance parity with the main
// index).
func (f *Filter) Add(id uint32, docText string) {
	seen := map[string]struct{}{}
	for _, tok := range text.Tokenize(docText) {
		if _, dup := seen[tok]; dup {
			continue
		}
		seen[tok] = struct{}{}
		list := f.postings(tok)
		pos := sort.Search(len(list), func(i int) bool { return list[i] >= id })
		if pos < len(list) && list[pos] == id {
			continue
		}
		nl := make([]uint32, len(list)+1)
		copy(nl, list[:pos])
		nl[pos] = id
		copy(nl[pos+1:], list[pos:])
		f.setPostings(tok, nl)
	}
}

// Remove drops an object from all postings.
func (f *Filter) Remove(id uint32, docText string) {
	for _, tok := range text.Tokenize(docText) {
		list := f.postings(tok)
		pos := sort.Search(len(list), func(i int) bool { return list[i] >= id })
		if pos < len(list) && list[pos] == id {
			nl := make([]uint32, len(list)-1)
			copy(nl, list[:pos])
			copy(nl[pos:], list[pos+1:])
			f.setPostings(tok, nl)
		}
	}
}

// DocFrequency returns the number of objects containing the token.
func (f *Filter) DocFrequency(token string) int {
	return len(f.postings(normalize(token)))
}

func normalize(token string) string {
	toks := text.Tokenize(token)
	if len(toks) != 1 {
		return ""
	}
	return toks[0]
}

// Candidates returns the sorted IDs of objects containing ALL keywords
// (boolean AND). ok=false means at least one keyword normalizes away
// (e.g. a pure stop word); an empty result with ok=true means no object
// matches.
func (f *Filter) Candidates(keywords []string) (ids []uint32, ok bool) {
	if len(keywords) == 0 {
		return nil, false
	}
	lists := make([][]uint32, 0, len(keywords))
	for _, kw := range keywords {
		norm := normalize(kw)
		if norm == "" {
			return nil, false
		}
		lists = append(lists, f.postings(norm))
	}
	// Intersect starting from the rarest list.
	sort.Slice(lists, func(a, b int) bool { return len(lists[a]) < len(lists[b]) })
	if len(lists[0]) == 0 {
		return []uint32{}, true
	}
	out := append([]uint32(nil), lists[0]...)
	for _, list := range lists[1:] {
		out = intersect(out, list)
		if len(out) == 0 {
			return out, true
		}
	}
	return out, true
}

// intersect merges two sorted lists.
func intersect(a, b []uint32) []uint32 {
	out := a[:0]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// Predicate returns a membership test over the AND-candidate set.
func (f *Filter) Predicate(keywords []string) (allow func(id uint32) bool, ok bool) {
	ids, ok := f.Candidates(keywords)
	if !ok {
		return nil, false
	}
	set := make(map[uint32]struct{}, len(ids))
	for _, id := range ids {
		set[id] = struct{}{}
	}
	return func(id uint32) bool {
		_, in := set[id]
		return in
	}, true
}
