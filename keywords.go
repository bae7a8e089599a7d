package cssi

import (
	"errors"

	"repro/internal/keyword"
	"repro/internal/knn"
)

// keywordBruteForceCap bounds the candidate-set size below which a
// keyword query is answered by directly evaluating the candidates
// instead of running the filtered index search.
const keywordBruteForceCap = 512

// EnableKeywordFilter builds an inverted index over the stored objects'
// texts, enabling SearchWithKeywords. Call it once after Build (or after
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

// KeywordFilterEnabled reports whether SearchWithKeywords is available.
func (x *Index) KeywordFilterEnabled() bool { return x.kw != nil }

// SearchWithKeywords returns the k nearest neighbors of q among objects
// whose text contains ALL the given keywords (boolean AND, stop words
// ignored) — the classic spatial-keyword constraint of the related work
// (§2) layered on top of CSSI's semantic ranking. ok=false indicates the
// keyword list was unusable (empty, or all stop words); an empty result
// with ok=true means nothing matches. It is Do with
// SearchRequest.Keywords, where ok=false is ErrUnusableKeywords; having
// no error result, it panics with Do's other errors —
// ErrKeywordFilterDisabled when EnableKeywordFilter was not called.
func (x *Index) SearchWithKeywords(q *Object, k int, lambda float64, keywords ...string) (results []Result, ok bool) {
	return keywordSearch(x.Do, q, k, lambda, keywords)
}

// keywordSearch adapts a flavor's Do to the SearchWithKeywords
// contract: an unusable keyword list — an empty one included, which as
// SearchRequest.Keywords would mean "unconstrained" — is ok=false, and
// every other error, ErrKeywordFilterDisabled included, panics like
// Search (the wrapper has no error result).
func keywordSearch(do func(SearchRequest) ([]Result, error), q *Object, k int, lambda float64, keywords []string) ([]Result, bool) {
	if len(keywords) == 0 {
		return nil, false
	}
	res, err := do(SearchRequest{Query: q, K: k, Lambda: lambda, Keywords: keywords})
	if errors.Is(err, ErrUnusableKeywords) {
		return nil, false
	}
	return mustResults(res, err), true
}

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
			all = append(all, Result{ID: id, Dist: x.space.Distance(nil, lambda, q, o)})
		}
		knn.SortResults(all)
		if len(all) > k {
			all = all[:k]
		}
		return all, true
	}
	// Broad keyword sets: run the filtered index search.
	allow, _ := x.kw.Predicate(keywords)
	return x.core.SearchFiltered(q, k, lambda, allow, nil), true
}

// KeywordDocFrequency reports how many live objects contain the keyword
// (0 when the filter is disabled or the keyword normalizes away).
func (x *Index) KeywordDocFrequency(kw string) int {
	if x.kw == nil {
		return 0
	}
	return x.kw.DocFrequency(kw)
}
