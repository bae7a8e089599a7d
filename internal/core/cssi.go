package core

import (
	"math"
	"time"

	"repro/internal/dataset"
	"repro/internal/knn"
	"repro/internal/metric"
	"repro/internal/obs"
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

// SearchApprox answers a k-NN query with the CSSIA algorithm (Alg. 3):
// Search with SearchOptions.Approx. The read stops at a projected-space
// bound (§5.3), so it can miss a cluster holding a true neighbor.
func (x *Index) SearchApprox(q *dataset.Object, k int, lambda float64, st *metric.Stats) []knn.Result {
	return x.SearchOptionsInto(nil, q, k, lambda, SearchOptions{Approx: true}, st)
}

// orderByBound computes the query's centroid-level distances and starts
// the frontier over the true Eq. 4 bound (Alg. 2 line 4). A spatial side
// whose ball misses the read's window gets no cursor. The original-space
// semantic centroid distances dominate the centroid-level cost (Kt
// n-dimensional kernels), yet a query that fills its heap early never
// consults most of them, so under the Euclidean metric the semantic sides
// enter with the weak bound from the m-dimensional projected space and
// the frontier computes a side's true dtq only when the merge reaches it.
// The weak bound never exceeds the true one (sideTerm is non-decreasing
// in the distance), which is all the frontier needs to yield clusters in
// ascending true bound.
//
// A CSSIA read orders by the Eq. 4 bound in the projected space instead
// (§5.3), final from the start; its scans compute the original-space dtq
// of each examined cluster on first use.
func (x *Index) orderByBound(sc *searchScratch, q *dataset.Object, lambda float64) *sideFrontier {
	x.fillSpatialCentroidDists(sc, q)
	x.fillSpatialTerms(sc, lambda)
	if w := sc.rs.window; w != nil {
		for s := range sc.aTerm {
			if w.minDist(x.sCentX[s], x.sCentY[s])/x.space.DsMax > x.sRad[s] {
				sc.aTerm[s] = -1
			}
		}
	}
	if sc.approx {
		x.pcaModel.TransformInto(sc.qProj, q.Vec)
		for t := range sc.dtqProj {
			sc.dtqProj[t] = x.space.SemanticProjVec(sc.qProj, x.tCentProj[t])
		}
		clear(sc.dtqKnown)
		return x.startFrontier(sc, q, 1-lambda, sc.dtqProj, x.tRadProj, true)
	}
	if x.lazyOrderable() {
		x.fillProjLowerBounds(sc, q)
		return x.startFrontier(sc, q, 1-lambda, sc.dtqProj, x.tRad, false)
	}
	x.fillSemanticCentroidDists(sc, q)
	return x.startFrontier(sc, q, 1-lambda, sc.dtq, x.tRad, true)
}

// read answers q over xs — one snapshot, or several holding disjoint
// rows of one metric space — into sc's heap, reset to k, visiting each
// snapshot's frontier and then its overlay with the heap carried from
// one to the next, so a snapshot starts from the k-th distance those
// before it found. With striped set the read is offered to an idle
// helper as a second stripe (see stripe.go); the stripes then fill the
// one heap and cut at its bound, and the answer is the same; read
// reports whether the helper took a stripe. spans, when non-nil, has one
// entry per snapshot and takes its internals, the k-th distance the heap
// held once it was walked, and its wall time; st the work counters
// otherwise.
func read(sc *searchScratch, xs []*Index, q *dataset.Object, lambda float64, striped bool, spans []obs.ShardSpan, st *metric.Stats) bool {
	if striped {
		// Offered before ordering, so the helper's wake-up overlaps it.
		if j := offerStripe(sc, xs, q, lambda, spans); j != nil {
			return j.callerStripe()
		}
	}
	for i, x := range xs {
		var sp *obs.ShardSpan
		if spans != nil {
			sp = &spans[i]
		}
		if x.visit(sc, i, false, q, lambda, nil, false, true, sp, st) {
			sc.partial = true
		}
	}
	return false
}

// visit walks snapshot i, x, of the read on sc for one stripe (see
// walkSnapshot; into sc's heap unless sh is set): on sc itself for the
// caller's walk of snapshot 0, whose pool sc came from, else on a
// scratch drawn from x's pool with the read's budget, restriction and
// anchor distances. With sp non-nil the walk's internals accumulate into
// it instead of st, with the k-th distance the read's heap holds once
// the walk ends (the distance of its worst held result) and the walk's
// wall time. visit reports whether a budget cut ended the walk.
func (x *Index) visit(sc *searchScratch, i int, helper bool, q *dataset.Object, lambda float64, sh *stripeJob, chunked, delta bool, sp *obs.ShardSpan, st *metric.Stats) bool {
	var start time.Time
	if sp != nil {
		start = time.Now()
	}
	w := sc
	if i != 0 || helper {
		w = x.getScratch()
		w.deadline, w.cancel, w.budgeted, w.rs, w.approx = sc.deadline, sc.cancel, sc.budgeted, sc.rs, sc.approx
		w.anchorShared, w.helper = sc.anchorShared, helper
		if sh == nil {
			w.obs = sc.obs // an Explain read's, on one stripe
		}
		defer x.putScratch(w)
	}
	if sp != nil {
		w.obs, st = &sp.Stats, &sp.Stats.Stats
	}
	h := &sc.heap
	if sh != nil {
		h = nil
	}
	x.walkSnapshot(w, q, lambda, h, sh, chunked, delta, st)
	if sp != nil {
		if sh != nil {
			sh.mu.Lock()
			defer sh.mu.Unlock()
		}
		if held := sc.heap.Items(); len(held) > 0 {
			sp.Stats.KthDistance = held[0].Dist
		}
		sp.DurationNanos += time.Since(start).Nanoseconds()
	}
	return w.partial
}

// walkSnapshot is one snapshot's part of a read on sc (Alg. 2): it
// orders the frontier, walks it, and, with delta set, chains the write
// overlay's live inserts onto the same heap (a no-op on flat snapshots).
// Exactness is unchanged: the final heap is a pure function of the
// offered candidate set, the base walk offered every live base
// candidate not provably excluded, and scanDelta offers every live
// overlay candidate not provably excluded. A CSSIA read chains them the
// same way: only its base walk is approximate, so the projected
// distances it kept are dropped before the overlay pushes. On a stripe
// of sh, h is nil and the walk pushes into and cuts at sh's one heap,
// claiming frontier positions in chunks when chunked is set (see
// walkFrontier).
func (x *Index) walkSnapshot(sc *searchScratch, q *dataset.Object, lambda float64, h *knn.Heap, sh *stripeJob, chunked, delta bool, st *metric.Stats) {
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
	x.walkFrontier(sc, f, q, lambda, h, sh, chunked, st)
	if sc.obs != nil {
		sc.obs.ScanNanos += time.Since(phase).Nanoseconds()
	}
	if delta {
		if sc.approx {
			h.DropAux()
		}
		x.scanDelta(sc, q, lambda, h, sh, st)
	}
}

// walkFrontier is the frontier loop of Alg. 2: it scans clusters in
// ascending lower bound into h until the head's bound exceeds the k-th
// distance capped by the read's radius. With sh non-nil it is one stripe
// of a striped read, and h is nil: it pushes into and cuts at sh's one
// heap (see kth), and, with chunked set, scans only the frontier
// positions it claims from sh and pops the others unscanned. Otherwise
// every position is its own.
//
// A CSSIA read stops instead at Alg. 3's one approximate step: the heap
// is full and the head's projected bound reaches U', the largest
// projected distance held (§5.3). Non-strict, as in the paper: at λ = 0
// a query that is a stored object has U' = 0, and a strict cut would scan
// every cluster whose projected ball holds it.
func (x *Index) walkFrontier(sc *searchScratch, f *sideFrontier, q *dataset.Object, lambda float64, h *knn.Heap, sh *stripeJob, chunked bool, st *metric.Stats) {
	// Positions [lo, hi) are this stripe's current claim; pos is the
	// frontier position of the next pop.
	pos, lo, hi := int32(0), int32(0), int32(math.MaxInt32)
	if chunked {
		hi = 0
	}
	radius := sc.rs.radius
	for {
		c, lb, ok := f.peek()
		if !ok {
			break
		}
		if sc.approx {
			if h.Full() && lb >= h.MaxAux() {
				break
			}
		} else if u, full := kth(h, radius, sh); full && lb > u {
			// Pruning property 1 (Lemma 4.4): lb is the smallest true
			// bound among the clusters not yet examined. Strict, like
			// every cut below: an object tying the k-th distance at its
			// cluster's bound is still offered and wins or loses on its
			// ID.
			break
		}
		if sc.budgetExpired() {
			// Time budget fired: stop consuming the frontier and return
			// the heap as-is — an admissible truncated prefix (see
			// deadline.go), reported through SearchOptions.Partial.
			return
		}
		if pos >= hi {
			lo, hi = sh.claim(sc)
		}
		if pos++; pos <= lo {
			f.pop(c, nil) // another stripe's position
			continue
		}
		f.pop(c, st)
		if st != nil {
			st.ClustersOrdered++
		}
		x.scanCluster(sc, q, lambda, c, sc.dsq[c.s], x.centroidDist(sc, q, c.t), h, radius, sh, st)
	}
	// Every cluster the frontier did not hand out was pruned, by the cut
	// or by the window; on the last snapshot of a striped read the join
	// charges what neither stripe examined.
	if chunked {
		sh.charge(f, st)
	} else {
		f.chargePruned(st)
	}
}

// scanCluster examines the objects of one hybrid cluster (Alg. 2 lines
// 8-18). Once the heap is full the cluster's head thresholds may reject
// it whole (enterCluster), and every row passes the cluster's rowGate
// before any kernel: the component-wise Lemma 4.5 cut over the
// conservative array thresholds ends the scan, and the anchor bound
// skips single rows (see anchor.go). The gate pass has already dropped
// the rows whose anchor cut holds at the bound the scan starts with; the
// loop below runs on the rows it kept, whose vectors it prefetches
// first, so their misses overlap. ub caps the heap's k-th distance
// with the read's radius (+Inf for none); every cut against it is
// strict, like the cuts against the heap's own. On a stripe of a striped
// read, h is nil and sh's one heap takes the pushes and sets every cut
// (see kth). A row the read's restriction rejects is charged like a cut
// one, and a row beyond the radius is never pushed.
func (x *Index) scanCluster(sc *searchScratch, q *dataset.Object, lambda float64, c *hybrid, dsqC, dtqC float64, h *knn.Heap, ub float64, sh *stripeJob, st *metric.Stats) {
	if st != nil {
		st.ClustersExamined++
	}
	u0, full0 := kth(h, ub, sh)
	blk, g, keep, ok := x.enterCluster(sc, q, lambda, c, dsqC, dtqC, u0, full0, st)
	if !ok {
		return
	}
	for _, p := range keep {
		vec.Prefetch(x.vecAt(c.elems[p].idx))
	}
	tombs := x.deltaTombs()
	rs := &sc.rs
	// next is the first block position the loop has neither examined nor
	// charged: the rows between it and a kept row are the dropped ones.
	next := 0
	for _, p := range keep {
		ei := int(p)
		e := &c.elems[ei]
		u, full := kth(h, ub, sh)
		if full && g.suffixBound(e) > u {
			// Pruning property 2: the thresholds are non-increasing, so
			// the bound only grows over the later elements.
			if st != nil {
				x.chargeTail(c, blk, g, rs, next, ei, u, st)
			}
			return
		}
		if st != nil && next < ei {
			x.chargeDropped(c, blk, rs, next, ei, st)
		}
		next = ei + 1
		// Overlay tombstones hide base objects the shared cluster arrays
		// still list.
		if tombs != nil && tombs.get(e.idx) {
			continue
		}
		if rs.rows && !rs.admits(x.ids[e.idx], blk.xs[ei], blk.ys[ei]) {
			if st != nil {
				st.IntraPruned++
			}
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
			var ok bool
			dt, ok = x.space.SemanticBound(st, q.Vec, ov, abandonLimit(u, lambda, ds))
			if !ok {
				if sc.obs != nil {
					sc.obs.EarlyAbandons++
				}
				continue
			}
		} else {
			dt = x.space.Semantic(st, q.Vec, ov)
		}
		// Not d > r rather than d ≤ r: a k-NN read keeps even a NaN
		// distance, as it always has.
		if d := metric.Combine(lambda, ds, dt); !(d > rs.radius) {
			r := knn.Result{ID: x.ids[e.idx], Dist: d}
			switch {
			case sc.approx:
				x.pushApprox(sc, h, r, lambda, ds, x.projAt(e.idx))
			default:
				push(sc, h, sh, r)
			}
		}
	}
	if st != nil {
		// The rows after the last kept one: dropped, or past the cut.
		u, _ := kth(h, ub, sh)
		x.chargeTail(c, blk, g, rs, next, g.cut, u, st)
	}
}

// pushApprox offers a CSSIA candidate to h with its projected distance
// d' = λ·ds + (1−λ)·d't (§5.3), where proj is its row's projection. It
// stays out of line: with the projected kernel inlined into scanCluster,
// the exact read measured 1–3 % slower (exact-flat p50, 2 vCPUs).
//
//go:noinline
func (x *Index) pushApprox(sc *searchScratch, h *knn.Heap, r knn.Result, lambda, ds float64, proj []float32) {
	h.PushAux(r, metric.Combine(lambda, ds, x.space.SemanticProjVec(sc.qProj, proj)))
}

// abandonRelSlack widens the early-abandon limit's numerator u − λ·ds
// by a relative |u| before the division. Far out (ds ≈ 1e140) λ·ds
// rounds to u itself for a row that ties the k-th distance, the limit
// falls to 0 and the kernel abandons a row that should win on its ID.
// 1e-12 is far above Combine's rounding (a few ulps of u) and far below
// any distance gap that decides a k-NN answer, so a widened limit only
// lets a few more rows finish their kernel and lose to u.
const abandonRelSlack = 1e-12

// abandonLimit is the early-abandon bound on dt for a row at spatial
// distance ds against the k-th distance u: d = λ·ds + (1−λ)·dt can only
// reach u when dt ≤ (u − λ·ds)/(1−λ), widened by abandonRelSlack. λ < 1.
func abandonLimit(u, lambda, ds float64) float64 {
	return (u - lambda*ds + abandonRelSlack*math.Abs(u)) / (1 - lambda)
}

// push offers r to the read's heap: h, or, on a stripe of sh, sh's one
// heap.
func push(sc *searchScratch, h *knn.Heap, sh *stripeJob, r knn.Result) {
	if sh != nil {
		sh.push(sc, r)
	} else {
		h.Push(r)
	}
}

// kth is the bound every cut of a scan reads, and whether it bounds
// anything: on a stripe of sh, the published bound of sh's one heap
// (finite once the heap is full or the read has a radius); otherwise
// cappedBound(h, ub).
func kth(h *knn.Heap, ub float64, sh *stripeJob) (float64, bool) {
	if sh != nil {
		u := sh.bound.load()
		return u, !math.IsInf(u, 1)
	}
	return cappedBound(h, ub)
}

// cappedBound is the heap's k-th distance capped by ub, and whether the
// result bounds anything: the heap is full or ub is finite.
func cappedBound(h *knn.Heap, ub float64) (float64, bool) {
	u, full := h.Bound()
	if ub < u || !full {
		return ub, full || !math.IsInf(ub, 1)
	}
	return u, true
}
