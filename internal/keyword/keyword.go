// Package keyword provides an inverted index over object texts for
// boolean keyword filtering. The paper positions CSSI against classic
// spatial-keyword search (§2), which matches query keywords exactly;
// combining the two — exact containment of required terms plus semantic
// ranking of the survivors — is a natural hybrid this package enables
// (SearchRequest.Keywords in the public API: the candidates of Candidates
// are the exact read's row predicate).
package keyword

import (
	"runtime"
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
// discipline the core index's write overlay uses for its tables.
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

// minChunkDocs is the fewest documents Build deals to one tokenising
// task unless the corpus has fewer: below it, another goroutine and
// another vocabulary to merge cost more than a second core saves.
const minChunkDocs = 4096

// chunk is one tokenising task of Build: a stretch of the documents in
// ID order, its own vocabulary, and per document the local ids of its
// distinct content terms, in text order.
type chunk struct {
	vocab
	ids    []uint32 // the chunk's documents' ids and texts, in ID order
	texts  []string
	occ    []int32 // local term ids, document after document
	docEnd []int32 // docEnd[d] = len(occ) after document d
	global []int32 // per local term, its global id (set by the merge)
	next   []int32 // per local term, where its next id goes in the list
}

// vocab interns the fields of one chunk's texts: field bytes → local
// term id through an open-addressed table over FNV-1a hashes, against
// a compact copy of every term's bytes, so a token costs no string,
// slice or map operation and touches no text but its own.
type vocab struct {
	slots []slot // a power of two long, at most half full
	keys  []byte // the terms' bytes, one after another
	terms []string
	stats []termStats
}

type slot struct {
	hash uint32
	term int32 // local term id + 1; 0 = empty
}

type termStats struct {
	key, keyEnd int32 // the term's bytes are keys[key:keyEnd]
	last        int32 // last document that listed the term; drops repeats
	count       int32 // documents of the chunk that list the term
	stop        bool  // the term is a stop word: never listed
}

// intern returns key's local term id in v, adding it when new. A key
// of type string becomes the term itself (a substring of the text it
// came from); one of type []byte is copied into a new string.
func intern[K string | []byte](v *vocab, key K) int32 {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	mask := uint32(len(v.slots) - 1)
	i := h & mask
	for ; v.slots[i].term != 0; i = (i + 1) & mask {
		if s := v.slots[i]; s.hash == h {
			if st := &v.stats[s.term-1]; string(v.keys[st.key:st.keyEnd]) == string(key) {
				return s.term - 1
			}
		}
	}
	term := string(key)
	v.terms = append(v.terms, term)
	v.stats = append(v.stats, termStats{key: int32(len(v.keys)), keyEnd: int32(len(v.keys) + len(key)),
		last: -1, stop: text.IsStopWord(term)})
	v.keys = append(v.keys, key...)
	t := int32(len(v.terms))
	v.slots[i] = slot{hash: h, term: t}
	if 2*len(v.terms) > len(v.slots) {
		old := v.slots
		v.slots = make([]slot, 2*len(old))
		mask = uint32(len(v.slots) - 1)
		for _, s := range old {
			if s.term != 0 {
				j := s.hash & mask
				for v.slots[j].term != 0 {
					j = (j + 1) & mask
				}
				v.slots[j] = s
			}
		}
	}
	return t - 1
}

// tokenize fills the chunk from the documents at positions docs in one
// pass. It first gathers their ids and texts, in a loop of their own:
// those loads miss the cache in any order but by position, and there the
// misses overlap instead of stalling the scan one by one.
func (c *chunk) tokenize(docs []int32, ids []uint32, texts []string) {
	c.ids = make([]uint32, len(docs))
	c.texts = make([]string, len(docs))
	for d, p := range docs {
		c.ids[d], c.texts[d] = ids[p], texts[p]
	}
	c.slots = make([]slot, 1024)
	c.docEnd = make([]int32, len(docs))
	c.occ = make([]int32, 0, 8*len(docs))
	var sc text.Scanner
	for d, s := range c.texts {
		sc.Reset(s)
		for {
			field, same, ok := sc.Next()
			if !ok {
				break
			}
			var t int32
			if field != nil {
				t = intern(&c.vocab, field)
			} else {
				t = intern(&c.vocab, same)
			}
			if st := &c.stats[t]; !st.stop && st.last != int32(d) {
				st.last = int32(d)
				st.count++
				c.occ = append(c.occ, t)
			}
		}
		c.docEnd[d] = int32(len(c.occ))
	}
}

// fill writes the ids of the chunk's documents into its stretch of each
// of its terms' posting lists.
func (c *chunk) fill(postings [][]uint32) {
	lo := int32(0)
	for d, end := range c.docEnd {
		id := c.ids[d]
		for _, l := range c.occ[lo:end] {
			postings[c.global[l]][c.next[l]] = id
			c.next[l]++
		}
		lo = end
	}
}

// Build tokenizes every (id, text) pair and constructs the postings, on
// up to workers goroutines (0 = GOMAXPROCS). Tokens are normalized
// exactly like query keywords (lower-cased, stop-words dropped). The
// documents are dealt in ID order into one chunk per worker, and each
// chunk interns its own vocabulary; the vocabularies merge into global
// term ids in chunk order, every posting list is allocated once at its
// exact size, and each chunk fills its own stretch of the lists. A list
// is therefore sorted as written, whatever the chunking, and the filter
// does not depend on the worker count.
func Build(ids []uint32, texts []string, workers int) *Filter {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return build(ids, texts, workers, max(minChunkDocs, (len(ids)+workers-1)/workers))
}

// build is Build over chunks of chunkDocs documents, the last taking the
// rest.
func build(ids []uint32, texts []string, workers, chunkDocs int) *Filter {
	order := idOrder(ids)
	chunks := make([]chunk, (len(ids)+chunkDocs-1)/chunkDocs)
	par.For(len(chunks), workers, func(lo, hi int) {
		for c := lo; c < hi; c++ {
			chunks[c].tokenize(order[c*chunkDocs:min((c+1)*chunkDocs, len(ids))], ids, texts)
		}
	})
	// The global vocabulary: a term's count is its posting list's size.
	all := vocab{slots: make([]slot, 1024)}
	for c := range chunks {
		ch := &chunks[c]
		ch.global = make([]int32, len(ch.terms))
		ch.next = make([]int32, len(ch.terms))
		for l, tok := range ch.terms {
			st := &ch.stats[l]
			if st.stop {
				continue
			}
			g := intern(&all, tok)
			ch.global[l], ch.next[l] = g, all.stats[g].count
			all.stats[g].count += st.count
		}
	}
	postings := make([][]uint32, len(all.terms))
	par.For(len(postings), workers, func(lo, hi int) {
		for g := lo; g < hi; g++ {
			postings[g] = make([]uint32, all.stats[g].count)
		}
	})
	par.For(len(chunks), workers, func(lo, hi int) {
		for c := lo; c < hi; c++ {
			chunks[c].fill(postings)
		}
	})
	f := &Filter{buckets: make([]*bucket, numBuckets)}
	for g, tok := range all.terms {
		f.setPostings(tok, postings[g])
	}
	return f
}

// idOrder returns the positions of ids in ascending ID order, equal IDs
// by position: a least-significant-digit radix sort, one byte a pass,
// skipping the passes above the largest ID.
func idOrder(ids []uint32) []int32 {
	order := make([]int32, len(ids))
	for p := range order {
		order[p] = int32(p)
	}
	if slices.IsSorted(ids) {
		return order
	}
	top := slices.Max(ids)
	tmp := make([]int32, len(ids))
	for shift := 0; shift < 32 && top>>shift != 0; shift += 8 {
		var at [257]int
		for _, id := range ids {
			at[(id>>shift)&0xff+1]++
		}
		for b := 1; b < len(at); b++ {
			at[b] += at[b-1]
		}
		for _, p := range order {
			b := (ids[p] >> shift) & 0xff
			tmp[at[b]] = p
			at[b]++
		}
		order, tmp = tmp, order
	}
	return order
}

// Add indexes one more object (for maintenance parity with the main
// index). A token repeated in the text finds id already listed, so Add
// allocates one new posting list per distinct content token, plus a
// string for a token lower-casing changed and, after a Clone, a copy of
// each bucket it touches.
func (f *Filter) Add(id uint32, docText string) {
	var sc text.Scanner
	sc.Reset(docText)
	for {
		tok, ok := sc.NextToken()
		if !ok {
			return
		}
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
	var sc text.Scanner
	sc.Reset(docText)
	for {
		tok, ok := sc.NextToken()
		if !ok {
			return
		}
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
