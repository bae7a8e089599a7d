package cssi

import (
	"slices"

	"repro/internal/keyword"
	"repro/internal/knn"
)

// keywordBruteForceCap bounds, per pinned snapshot, the candidate-set
// size up to which a keyword request is answered by evaluating its
// candidates directly instead of running the exact read over them.
const keywordBruteForceCap = 512

// EnableKeywordFilter builds an inverted index over the stored objects'
// texts, enabling SearchRequest.Keywords. Call it once after Build (or after
// LoadIndex); Insert/Delete/Update keep it in sync automatically from
// then on. Objects with empty text simply never match keyword queries.
func (x *Index) EnableKeywordFilter() {
	ids := make([]uint32, 0, x.core.Len())
	texts := make([]string, 0, x.core.Len())
	x.core.ForEachLive(func(o *Object) {
		ids = append(ids, o.ID)
		texts = append(texts, o.Text)
	})
	x.kw = keyword.Build(ids, texts, x.core.Config().Workers)
}

// KeywordFilterEnabled reports whether SearchRequest.Keywords is available.
func (x *Index) KeywordFilterEnabled() bool { return x.kw != nil }

// KeywordDocFrequency reports how many live objects contain the keyword
// (0 when the filter is disabled or the keyword normalizes away).
func (x *Index) KeywordDocFrequency(kw string) int {
	if x.kw == nil {
		return 0
	}
	return x.kw.DocFrequency(kw)
}

// keywordRows resolves a keyword request over the view's snapshots once:
// per snapshot, the sorted IDs of its objects whose text holds every
// keyword, and their total. Every snapshot carries the filter (validate
// checked). Usability depends on the keywords alone, so an unusable
// list fails on the first snapshot with ErrUnusableKeywords.
func (v *view) keywordRows(keywords []string) (rows [][]uint32, total int, err error) {
	rows = make([][]uint32, v.n())
	for i := range rows {
		ids, ok := v.at(i).kw.Candidates(keywords)
		if !ok {
			return nil, 0, ErrUnusableKeywords
		}
		rows[i], total = ids, total+len(ids)
	}
	return rows, total, nil
}

// evaluateRows answers a selective keyword request without a read: every
// candidate's true distance, appended to dst, sorted with ties by ID and
// cut to k — the exact top-k of the candidates, as the read would find
// it.
func (v *view) evaluateRows(dst []Result, q *Object, k int, lambda float64, rows [][]uint32, total int) []Result {
	all := make([]Result, 0, total)
	for i, ids := range rows {
		x := v.at(i)
		for _, id := range ids {
			if o, live := x.core.Object(id); live {
				all = append(all, Result{ID: id, Dist: x.space.Distance(nil, lambda, q, &o)})
			}
		}
	}
	knn.SortResults(all)
	return append(dst, all[:min(k, len(all))]...)
}

// idSet is the membership test a broad keyword request hands the read
// as its row predicate (core.SearchOptions.Allow): a bitmap over the
// candidates' ID span when that costs at most a word per candidate,
// else the sorted IDs searched by bisection — each snapshot's list is
// sorted and the snapshots hold disjoint IDs, so several lists merge in
// one linear pass. It is read-only, so both stripes of a read may test
// it at once.
type idSet struct {
	lo   uint32
	bits []uint64
	ids  []uint32
}

func newIDSet(rows [][]uint32, total int) *idSet {
	lo, hi := ^uint32(0), uint32(0)
	for _, ids := range rows {
		if len(ids) > 0 {
			lo, hi = min(lo, ids[0]), max(hi, ids[len(ids)-1])
		}
	}
	s := &idSet{lo: lo}
	if words := (uint64(hi)-uint64(lo))/64 + 1; words <= uint64(total) {
		s.bits = make([]uint64, words)
		for _, ids := range rows {
			for _, id := range ids {
				s.bits[(id-lo)/64] |= 1 << ((id - lo) % 64)
			}
		}
		return s
	}
	if len(rows) == 1 {
		s.ids = rows[0]
		return s
	}
	s.ids = make([]uint32, 0, total)
	next := make([]int, len(rows)) // rows[i][next[i]] is list i's head
	for len(s.ids) < total {
		best := -1
		for i, ids := range rows {
			if next[i] < len(ids) && (best < 0 || ids[next[i]] < rows[best][next[best]]) {
				best = i
			}
		}
		s.ids = append(s.ids, rows[best][next[best]])
		next[best]++
	}
	return s
}

func (s *idSet) has(id uint32) bool {
	if s.bits != nil {
		i := uint64(id - s.lo)
		return id >= s.lo && i/64 < uint64(len(s.bits)) && s.bits[i/64]>>(i%64)&1 != 0
	}
	_, ok := slices.BinarySearch(s.ids, id)
	return ok
}
