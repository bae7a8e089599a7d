package cssi

import (
	"repro/internal/core"
	"repro/internal/keyword"
	"repro/internal/knn"
)

// keywordBruteForceCap bounds the candidate-set size below which a
// keyword query is answered by directly evaluating the candidates
// instead of running the filtered index search.
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

// searchWithKeywords is the keyword-constrained search of one snapshot
// behind Do; inputs are already validated and the filter is present
// (see SearchRequest.validate).
func (x *Index) searchWithKeywords(q *Object, k int, lambda float64, keywords []string) (results []Result, ok bool) {
	candidates, ok := x.kw.Candidates(keywords)
	if !ok {
		return nil, false
	}
	if len(candidates) == 0 {
		return nil, true
	}
	// Selective keyword sets: evaluate the candidates directly.
	if len(candidates) <= keywordBruteForceCap {
		all := make([]Result, 0, len(candidates))
		for _, id := range candidates {
			o, live := x.core.Object(id)
			if !live {
				continue
			}
			all = append(all, Result{ID: id, Dist: x.space.Distance(nil, lambda, q, &o)})
		}
		knn.SortResults(all)
		if len(all) > k {
			all = all[:k]
		}
		return all, true
	}
	// Broad keyword sets: the exact read restricted to the matching rows,
	// without the request's budget (this path reports no Partial).
	allow, _ := x.kw.Predicate(keywords)
	return x.core.SearchOptionsInto(nil, q, k, lambda, core.SearchOptions{Allow: allow}, nil), true
}

// KeywordDocFrequency reports how many live objects contain the keyword
// (0 when the filter is disabled or the keyword normalizes away).
func (x *Index) KeywordDocFrequency(kw string) int {
	if x.kw == nil {
		return 0
	}
	return x.kw.DocFrequency(kw)
}
