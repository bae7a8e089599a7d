package cssi

import (
	"fmt"
)

// RangeSearch returns every object within combined distance r of q,
// ordered by ascending distance. It reuses the hybrid clusters and the
// bounds of the k-NN algorithm (a query type the paper's conclusion names
// as a natural extension of the index).
func (x *Index) RangeSearch(q *Object, r, lambda float64) []Result {
	return x.RangeSearchStats(q, r, lambda, nil)
}

// RangeSearchStats is RangeSearch with work counters.
func (x *Index) RangeSearchStats(q *Object, r, lambda float64, st *Stats) []Result {
	checkQuery(q, 1, lambda)
	x.checkQueryVec(q)
	if r < 0 {
		panic(fmt.Sprintf("cssi: negative range radius %v", r))
	}
	return x.core.RangeSearch(q, r, lambda, st)
}

// SearchInBox returns the k objects inside the spatial window
// [loX,hiX]×[loY,hiY] that are semantically nearest to q — "show me the
// most relevant things in this map viewport".
func (x *Index) SearchInBox(q *Object, loX, loY, hiX, hiY float64, k int) []Result {
	return x.SearchInBoxStats(q, loX, loY, hiX, hiY, k, nil)
}

// SearchInBoxStats is SearchInBox with work counters.
func (x *Index) SearchInBoxStats(q *Object, loX, loY, hiX, hiY float64, k int, st *Stats) []Result {
	checkQuery(q, k, 0)
	x.checkQueryVec(q)
	if loX > hiX || loY > hiY {
		panic("cssi: inverted spatial window")
	}
	return x.core.SearchInBox(q, loX, loY, hiX, hiY, k, st)
}
