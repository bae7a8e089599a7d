package core

import (
	"time"

	"repro/internal/dataset"
	"repro/internal/knn"
	"repro/internal/metric"
	"repro/internal/vec"
)

// fillSpatialCentroidDists computes the normalized spatial distance from
// q to every spatial centroid into sc.dsq (Ks cheap 2-D distances,
// always eager).
func (x *Index) fillSpatialCentroidDists(sc *searchScratch, q *dataset.Object) {
	for s := range sc.dsq {
		sc.dsq[s] = x.space.SpatialXY(q.X, q.Y, x.sCentX[s], x.sCentY[s])
	}
}

// fillSemanticCentroidDists computes all Kt original-space semantic
// centroid distances eagerly (the fallback path when the lazy ordering
// does not apply).
func (x *Index) fillSemanticCentroidDists(sc *searchScratch, q *dataset.Object) {
	for t := range sc.dtq {
		sc.dtq[t] = x.space.SemanticVec(q.Vec, x.tCent[t])
		sc.dtqKnown[t] = true
	}
}

// lazyOrderable reports whether cluster ordering can use the cheap
// projected-space lower bound on dtq instead of computing all Kt
// n-dimensional centroid distances up front. The bound relies on the
// PCA projection being a contraction of the Euclidean metric, so it is
// restricted to the Euclidean semantic kind.
func (x *Index) lazyOrderable() bool {
	return x.space.SemanticKind == metric.EuclideanSemantic && x.pcaModel != nil && x.m > 0
}

// projWeakRelSlack and projWeakAbsSlack deflate the projected-space
// estimate of dtq so that it is a certain lower bound despite
// floating-point noise. Mathematically ‖W(q−C^t)‖ ≤ ‖q−C^t‖ for the
// orthonormal components W, and the stored projected centroid equals
// the projection of the original-space centroid by linearity of the
// mean — but both are computed in float32, so the computed projected
// distance can exceed the true one by a few float32 ulps of the
// component magnitudes. The absolute slack (in normalized [0,1] units)
// dominates that error by >100×, and costs effectively no pruning
// power: it only matters for clusters whose bound ties the k-NN bound
// to within 1e-5.
//
// The bound additionally relies on tCentProj[t] being the PCA image of
// tCent[t]. That holds because centroids are immutable after build —
// maintenance only adjusts radii (see Insert in maintain.go) — and both
// representations are recomputed together by Build. CheckInvariants
// (checkProjBoundSoundness) asserts the pairing and probes that the
// deflated bound never exceeds the true centroid distance, so a future
// change to centroid maintenance or to the projection cannot silently
// turn exact search approximate.
const (
	projWeakRelSlack = 1e-6
	projWeakAbsSlack = 1e-5
)

// fillProjLowerBounds projects q and fills sc.dtqProj[t] with a weak
// lower bound on the original-space centroid distance dtq[t], clearing
// the dtq memoization flags. Used by the lazy ordering of Search: the
// true dtq of a cluster is only computed when the cluster is actually
// reached (satellite fix for the eager all-Kt computation).
func (x *Index) fillProjLowerBounds(sc *searchScratch, q *dataset.Object) {
	x.pcaModel.TransformInto(sc.qProj, q.Vec)
	inv := (1 - projWeakRelSlack) / x.space.DtMax
	for t := range sc.dtqProj {
		w := vec.Dist(sc.qProj, x.tCentProj[t])*inv - projWeakAbsSlack
		if w < 0 {
			w = 0
		}
		sc.dtqProj[t] = w
	}
	for t := range sc.dtqKnown {
		sc.dtqKnown[t] = false
	}
}

// Search answers an exact k-NN query with the CSSI algorithm (Alg. 2):
// SearchOptionsInto with the zero options into a fresh slice.
func (x *Index) Search(q *dataset.Object, k int, lambda float64, st *metric.Stats) []knn.Result {
	return x.SearchOptionsInto(nil, q, k, lambda, SearchOptions{}, st)
}

// orderByBound computes the query's centroid-level distances and starts
// the frontier over the true Eq. 4 bound (Alg. 2 line 4).
func (x *Index) orderByBound(sc *searchScratch, q *dataset.Object, lambda float64) *sideFrontier {
	x.fillSpatialCentroidDists(sc, q)
	x.fillSpatialTerms(sc, lambda)
	return x.startTrueFrontier(sc, q, 1-lambda)
}

// startTrueFrontier starts the frontier over sc.aTerm and the true
// semantic shares weighted bw. The original-space semantic centroid
// distances dominate the centroid-level cost (Kt n-dimensional
// kernels), yet a query that fills its heap early never consults most
// of them, so under the Euclidean metric the semantic sides enter with
// the weak bound from the m-dimensional projected space and the frontier
// computes a side's true dtq only when the merge reaches it. The weak
// bound never exceeds the true one (sideTerm is non-decreasing in the
// distance), which is all the frontier needs to yield clusters in
// ascending true bound.
func (x *Index) startTrueFrontier(sc *searchScratch, q *dataset.Object, bw float64) *sideFrontier {
	if x.lazyOrderable() {
		x.fillProjLowerBounds(sc, q)
		return x.startFrontier(sc, q, bw, sc.dtqProj, x.tRad, false)
	}
	x.fillSemanticCentroidDists(sc, q)
	return x.startFrontier(sc, q, bw, sc.dtq, x.tRad, true)
}

// searchWithSeed is the exact CSSI algorithm on a drawn scratch, with
// the k-NN heap pre-loaded from seed (see SearchOptions.Seed).
func (x *Index) searchWithSeed(sc *searchScratch, dst, seed []knn.Result, q *dataset.Object, k int, lambda float64, st *metric.Stats) []knn.Result {
	var phase time.Time
	if sc.obs != nil {
		phase = time.Now()
	}
	f := x.orderByBound(sc, q, lambda)
	if sc.obs != nil {
		sc.obs.ClustersTotal += int64(len(x.clusters))
		sc.obs.OrderNanos += time.Since(phase).Nanoseconds()
		phase = time.Now()
	}

	h := &sc.heap
	h.Reset(k)
	for _, r := range seed {
		h.Push(r)
	}
	for {
		c, lb, ok := f.peek()
		if !ok {
			break
		}
		if u, full := h.Bound(); full && lb >= u {
			// Pruning property 1 (Lemma 4.4): lb is the smallest true
			// bound among the clusters not yet examined.
			f.chargePruned(st)
			break
		}
		if sc.budgetExpired() {
			// Time budget fired: stop consuming the frontier and return
			// the heap as-is — an admissible truncated prefix (see
			// deadline.go), reported through SearchOptions.Partial.
			break
		}
		f.pop(c)
		if st != nil {
			st.ClustersOrdered++
		}
		x.scanCluster(sc, q, lambda, c, sc.dsq[c.s], x.centroidDist(sc, q, c.t), h, st)
	}
	if sc.obs != nil {
		sc.obs.ScanNanos += time.Since(phase).Nanoseconds()
	}
	// Chain the write overlay's live inserts onto the same heap (a no-op
	// on flat snapshots). Exactness is unchanged: the final heap is a
	// pure function of the offered candidate set, the base scan offered
	// every live base candidate not provably excluded, and scanDelta
	// offers every live overlay candidate not provably excluded.
	x.scanDelta(sc, q, lambda, h, st)
	return h.AppendSorted(dst)
}

// scanCluster examines the objects of one hybrid cluster (Alg. 2 lines
// 8-18). Once the heap is full the cluster's head thresholds may reject
// it whole (enterCluster), and every row passes the cluster's rowGate
// before any kernel: the component-wise Lemma 4.5 cut over the
// conservative array thresholds ends the scan, and the anchor bound
// skips single rows (see anchor.go).
func (x *Index) scanCluster(sc *searchScratch, q *dataset.Object, lambda float64, c *hybrid, dsqC, dtqC float64, h *knn.Heap, st *metric.Stats) {
	if st != nil {
		st.ClustersExamined++
	}
	u0, full0 := h.Bound()
	blk, g, ok := x.enterCluster(sc, q, lambda, c, dsqC, dtqC, u0, full0, st)
	if !ok {
		return
	}
	tombs := x.deltaTombs()
	for ei := range c.elems {
		e := &c.elems[ei]
		u, full := h.Bound()
		if full && g.suffixBound(e) > u {
			// Pruning property 2: the thresholds are non-increasing, so
			// the bound only grows over the later elements.
			if st != nil {
				st.IntraPruned += int64(len(c.elems) - ei)
			}
			return
		}
		// Overlay tombstones hide base objects the shared cluster arrays
		// still list.
		if tombs != nil && tombs.get(e.idx) {
			continue
		}
		if st != nil {
			st.VisitedObjects++
		}
		ds := x.space.Spatial(st, q.X, q.Y, blk.xs[ei], blk.ys[ei])
		if full && metric.Combine(lambda, ds, g.semLower(ei, e)) > u {
			if st != nil {
				st.AnchorPruned++
			}
			continue
		}
		ov := x.vecAt(e.idx)
		var dt float64
		if full && lambda < 1 {
			// Early abandonment: o can only enter the heap with
			// d = λ·ds + (1−λ)·dt < u, i.e. dt < (u − λ·ds)/(1−λ). The
			// kernel stops once its monotone partial sum proves dt beyond
			// that, so far-away candidates cost a fraction of the full
			// n-dimensional work. A non-abandoned dt is bit-identical to
			// the plain kernel, keeping results exact.
			dtBound := (u - lambda*ds) / (1 - lambda)
			var ok bool
			dt, ok = x.space.SemanticBound(st, q.Vec, ov, dtBound)
			if !ok {
				if sc.obs != nil {
					sc.obs.EarlyAbandons++
				}
				continue
			}
		} else {
			dt = x.space.Semantic(st, q.Vec, ov)
		}
		h.Push(knn.Result{ID: x.objects[e.idx].ID, Dist: metric.Combine(lambda, ds, dt)})
	}
}
