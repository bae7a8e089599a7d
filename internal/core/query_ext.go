package core

import (
	"math"

	"repro/internal/dataset"
	"repro/internal/knn"
	"repro/internal/metric"
)

// This file implements the additional query types the paper's conclusion
// (§8) names as future work — "other query types that combine spatial
// with semantic retrieval and can exploit our indexing based on the
// hybrid clusters". Both reuse the hybrid clusters and the bounds of §4:
//
//   - RangeSearch: all objects within combined distance r of the query;
//   - SearchInBox: the k semantically nearest objects whose location
//     falls inside a spatial window.

// RangeSearch returns every object o with d(q,o) = λ·ds + (1−λ)·dt ≤ r,
// ordered by ascending distance. Pruning mirrors the k-NN algorithm with
// the fixed radius in place of the adaptive bound U: clusters with
// L(q,C) > r cannot contain results (Lemma 4.3), and within a cluster the
// scan stops once the component-wise Lemma 4.5 bound exceeds r and skips
// rows whose stored semantic lower bound does (see rowGate). Like Search, the
// semantic centroid distances are computed lazily per surviving cluster
// under the Euclidean metric, and candidate kernels abandon early once
// dt provably pushes d beyond r.
func (x *Index) RangeSearch(q *dataset.Object, r, lambda float64, st *metric.Stats) []knn.Result {
	sc := x.getScratch()
	defer x.putScratch(sc)
	x.fillSpatialCentroidDists(sc, q)
	lazy := x.lazyOrderable()
	if lazy {
		x.fillProjLowerBounds(sc, q)
	} else {
		x.fillSemanticCentroidDists(sc, q)
	}
	// Range search needs no cluster ordering (and hence no frontier):
	// the pruning bound is the fixed radius r, not an adaptive k-NN
	// bound that tightens as results accumulate, so the per-cluster
	// lower-bound filter below already prunes exactly the clusters a
	// sorted cut-off would — sorting could only save the remaining cheap
	// float comparisons at the cost of ordering all clusters.
	var out []knn.Result
	tombs := x.deltaTombs()
	for _, c := range x.clusters {
		var weak float64
		if lazy {
			weak = lowerBound(lambda, sc.dsq[c.s], x.sRad[c.s], sc.dtqProj[c.t], x.tRad[c.t])
		} else {
			weak = lowerBound(lambda, sc.dsq[c.s], x.sRad[c.s], sc.dtq[c.t], x.tRad[c.t])
		}
		if weak > r {
			if st != nil {
				st.ClustersPruned++
				st.InterPruned += int64(len(c.elems))
			}
			continue
		}
		dtqC := sc.dtq[c.t]
		if !sc.dtqKnown[c.t] {
			dtqC = x.space.SemanticVec(q.Vec, x.tCent[c.t])
			sc.dtq[c.t] = dtqC
			sc.dtqKnown[c.t] = true
		}
		if lazy {
			if lowerBound(lambda, sc.dsq[c.s], x.sRad[c.s], dtqC, x.tRad[c.t]) > r {
				if st != nil {
					st.ClustersPruned++
					st.InterPruned += int64(len(c.elems))
				}
				continue
			}
		}
		if st != nil {
			st.ClustersExamined++
		}
		blk, g, ok := x.enterCluster(sc, q, lambda, c, sc.dsq[c.s], dtqC, r, true, st)
		if !ok {
			continue
		}
		for ei := range c.elems {
			e := &c.elems[ei]
			if g.suffixBound(e) > r {
				if st != nil {
					st.IntraPruned += int64(len(c.elems) - ei)
				}
				break
			}
			if tombs != nil && tombs.get(e.idx) {
				continue
			}
			if st != nil {
				st.VisitedObjects++
			}
			ds := x.space.Spatial(st, q.X, q.Y, blk.xs[ei], blk.ys[ei])
			if metric.Combine(lambda, ds, g.semLower(ei, e)) > r {
				if st != nil {
					st.AnchorPruned++
				}
				continue
			}
			ov := x.vecAt(e.idx)
			var dt float64
			if lambda < 1 {
				// A result needs d ≤ r, i.e. dt ≤ (r − λ·ds)/(1−λ); the
				// kernel abandons once dt provably exceeds that.
				dtBound := (r - lambda*ds) / (1 - lambda)
				var ok bool
				dt, ok = x.space.SemanticBound(st, q.Vec, ov, dtBound)
				if !ok {
					continue
				}
			} else {
				dt = x.space.Semantic(st, q.Vec, ov)
			}
			if d := metric.Combine(lambda, ds, dt); d <= r {
				out = append(out, knn.Result{ID: x.ids[e.idx], Dist: d})
			}
		}
	}
	// Overlay chain: every live overlay insert is tested exactly against
	// the fixed radius, so range results match a compacted rebuild.
	x.forEachDeltaLive(func(o *dataset.Object) {
		if st != nil {
			st.VisitedObjects++
		}
		ds := x.space.Spatial(st, q.X, q.Y, o.X, o.Y)
		var dt float64
		if lambda < 1 {
			var ok bool
			dt, ok = x.space.SemanticBound(st, q.Vec, o.Vec, (r-lambda*ds)/(1-lambda))
			if !ok {
				return
			}
		} else {
			dt = x.space.Semantic(st, q.Vec, o.Vec)
		}
		if d := metric.Combine(lambda, ds, dt); d <= r {
			out = append(out, knn.Result{ID: o.ID, Dist: d})
		}
	})
	knn.SortResults(out)
	return out
}

// boxMinDistXY returns the Euclidean distance from (px,py) to the
// rectangle [loX,hiX]×[loY,hiY] (zero inside), without the slice
// round-trip of geo.Rect.MinDist.
func boxMinDistXY(px, py, loX, loY, hiX, hiY float64) float64 {
	var dx, dy float64
	if px < loX {
		dx = loX - px
	} else if px > hiX {
		dx = px - hiX
	}
	if py < loY {
		dy = loY - py
	} else if py > hiY {
		dy = py - hiY
	}
	// Same formula as geo.Rect.MinDist so pruning decisions are
	// bit-for-bit unchanged.
	return math.Sqrt(dx*dx + dy*dy)
}

// SearchInBox returns the k objects inside the spatial window [loX,hiX]×
// [loY,hiY] that are semantically nearest to q (pure dt ranking). Hybrid
// clusters whose spatial ball cannot intersect the window are pruned
// wholesale; within a cluster the semantic side of Lemma 4.5 cuts the
// scan once dt(q,Ct) − e.dt exceeds the current k-th semantic distance,
// and the anchor bound skips single rows that cannot beat it.
func (x *Index) SearchInBox(q *dataset.Object, loX, loY, hiX, hiY float64, k int, st *metric.Stats) []knn.Result {
	sc := x.getScratch()
	defer x.putScratch(sc)
	// Order clusters by their semantic lower bound so the cut-off of
	// Lemma 4.4 (with the pure-semantic metric) applies, via the same
	// frontier as Search with A ≡ 0 and unit semantic weight. Spatial
	// filter: a side whose ball (center, radius in normalized units)
	// cannot reach the window gets no cursor, so its clusters are never
	// yielded.
	for s := range sc.aTerm {
		sc.aTerm[s] = 0
		if boxMinDistXY(x.sCentX[s], x.sCentY[s], loX, loY, hiX, hiY)/x.space.DsMax > x.sRad[s] {
			sc.aTerm[s] = -1
		}
	}
	f := x.startTrueFrontier(sc, q, 1)

	h := &sc.heap
	h.Reset(k)
	tombs := x.deltaTombs()
	for {
		c, lb, ok := f.peek()
		if !ok {
			break
		}
		if u, full := h.Bound(); full && lb > u {
			break
		}
		f.pop(c)
		if st != nil {
			st.ClustersOrdered++
			st.ClustersExamined++
		}
		// Pure-semantic ranking is the gate at λ = 0 with no spatial side.
		u0, full0 := h.Bound()
		blk, g, ok := x.enterCluster(sc, q, 0, c, 0, x.centroidDist(sc, q, c.t), u0, full0, st)
		if !ok {
			continue
		}
		for ei := range c.elems {
			e := &c.elems[ei]
			u, full := h.Bound()
			if full && g.suffixBound(e) > u {
				if st != nil {
					st.IntraPruned += int64(len(c.elems) - ei)
				}
				break
			}
			if tombs != nil && tombs.get(e.idx) {
				continue
			}
			if ox, oy := blk.xs[ei], blk.ys[ei]; ox < loX || ox > hiX || oy < loY || oy > hiY {
				if st != nil {
					st.IntraPruned++
				}
				continue
			}
			if st != nil {
				st.VisitedObjects++
			}
			if full && g.semLower(ei, e) > u {
				if st != nil {
					st.AnchorPruned++
				}
				continue
			}
			ov := x.vecAt(e.idx)
			if full {
				// Pure-semantic ranking: only dt < u can enter the heap,
				// so the kernel may abandon at u directly.
				dt, ok := x.space.SemanticBound(st, q.Vec, ov, u)
				if ok {
					h.Push(knn.Result{ID: x.ids[e.idx], Dist: dt})
				}
			} else {
				h.Push(knn.Result{ID: x.ids[e.idx], Dist: x.space.Semantic(st, q.Vec, ov)})
			}
		}
	}
	// Every cluster not examined was pruned, by the window or by the cut.
	f.chargePruned(st)
	// Overlay chain: live overlay inserts pass the same window filter and
	// pure-semantic ranking, so box results match a compacted rebuild.
	x.forEachDeltaLive(func(o *dataset.Object) {
		if o.X < loX || o.X > hiX || o.Y < loY || o.Y > hiY {
			return
		}
		if st != nil {
			st.VisitedObjects++
		}
		if u, full := h.Bound(); full {
			if dt, ok := x.space.SemanticBound(st, q.Vec, o.Vec, u); ok {
				h.Push(knn.Result{ID: o.ID, Dist: dt})
			}
		} else {
			h.Push(knn.Result{ID: o.ID, Dist: x.space.Semantic(st, q.Vec, o.Vec)})
		}
	})
	return h.AppendSorted(nil)
}
