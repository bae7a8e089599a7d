package core

import (
	"repro/internal/dataset"
	"repro/internal/knn"
	"repro/internal/metric"
)

// SearchFiltered answers an exact k-NN query restricted to the objects
// accepted by allow (e.g. a boolean keyword predicate). The pruning of
// Alg. 2 stays sound under any filter: the bounds lower-bound distances
// for all objects, hence for any subset, and the heap bound U is derived
// only from accepted objects. Rejected objects never have their
// distances computed.
//
// Cluster ordering uses the same lazy best-first frontier as Search
// (see sideFrontier), so the ordering cost tracks the clusters the
// filtered scan actually reaches.
//
// Work accounting: rejected objects are not charged to any counter, so
// the visited+inter+intra identity of the unfiltered algorithms does not
// apply here; inter-cluster cut-offs charge ClustersPruned only.
func (x *Index) SearchFiltered(q *dataset.Object, k int, lambda float64, allow func(id uint32) bool, st *metric.Stats) []knn.Result {
	sc := x.getScratch()
	defer x.putScratch(sc)
	f := x.orderByBound(sc, q, lambda)

	h := &sc.heap
	h.Reset(k)
	tombs := x.deltaTombs()
	for {
		c, lb, ok := f.peek()
		if !ok {
			break
		}
		if u, full := h.Bound(); full && lb >= u {
			if st != nil {
				st.ClustersPruned += int64(len(x.clusters) - f.popped)
			}
			break
		}
		f.pop(c)
		if st != nil {
			st.ClustersOrdered++
			st.ClustersExamined++
		}
		// The cut charges nothing here (see the accounting note above).
		u0, full0 := h.Bound()
		blk, g, ok := x.enterCluster(sc, q, lambda, c, sc.dsq[c.s], x.centroidDist(sc, q, c.t), u0, full0, nil)
		if !ok {
			continue
		}
		for ei := range c.elems {
			el := &c.elems[ei]
			u, full := h.Bound()
			if full && g.suffixBound(el) > u {
				break // Lemma 4.5, valid for the filtered subset too
			}
			if tombs != nil && tombs.get(el.idx) {
				continue
			}
			o := &x.objects[el.idx]
			if !allow(o.ID) {
				continue
			}
			if st != nil {
				st.VisitedObjects++
			}
			ds := x.space.Spatial(st, q.X, q.Y, blk.xs[ei], blk.ys[ei])
			if full && metric.Combine(lambda, ds, g.semLower(ei, el)) > u {
				if st != nil {
					st.AnchorPruned++
				}
				continue
			}
			dt := x.space.Semantic(st, q.Vec, o.Vec)
			h.Push(knn.Result{ID: o.ID, Dist: metric.Combine(lambda, ds, dt)})
		}
	}
	// Overlay chain: the live overlay inserts pass through the same
	// filter and exact distance, so filtered results match a compacted
	// rebuild bit for bit.
	x.forEachDeltaLive(func(o *dataset.Object) {
		if !allow(o.ID) {
			return
		}
		h.Push(knn.Result{ID: o.ID, Dist: x.space.Distance(st, lambda, q, o)})
	})
	return h.AppendSorted(nil)
}
