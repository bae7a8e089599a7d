package core

import (
	"math"
	"time"

	"repro/internal/dataset"
	"repro/internal/knn"
	"repro/internal/metric"
)

// cand is a CSSIA candidate: its exact combined distance d and the
// projected-space combined distance d' = λ·ds + (1−λ)·d't (§5.3).
type cand struct {
	id     uint32
	d, dpr float64
}

// candHeap keeps the k candidates with the smallest exact distance as a
// max-heap by d, mirroring the paper's priority queue R. Whenever the set
// changes, CSSIA re-derives both U (max d) and U' (max d') — the paper's
// complexity analysis (§6.1) accounts for exactly this per-update scan.
// The sift operations are hand-written (no container/heap) so pushes do
// not box candidates onto the heap; the backing array is pooled in
// searchScratch.
type candHeap []cand

func (h *candHeap) push(v cand) {
	*h = append(*h, v)
	items := *h
	i := len(items) - 1
	for i > 0 {
		p := (i - 1) / 2
		if items[p].d >= items[i].d {
			break
		}
		items[p], items[i] = items[i], items[p]
		i = p
	}
}

// popMax removes the candidate with the largest exact distance.
func (h *candHeap) popMax() {
	items := *h
	n := len(items) - 1
	items[0] = items[n]
	*h = items[:n]
	items = items[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		big := l
		if r := l + 1; r < n && items[r].d > items[l].d {
			big = r
		}
		if items[i].d >= items[big].d {
			break
		}
		items[i], items[big] = items[big], items[i]
		i = big
	}
}

// maxDPr returns max d' over the held candidates.
func (h candHeap) maxDPr() float64 {
	mx := math.Inf(-1)
	for _, c := range h {
		if c.dpr > mx {
			mx = c.dpr
		}
	}
	return mx
}

// SearchApprox answers a k-NN query with the CSSIA algorithm (Alg. 3).
// Inter-cluster pruning runs in the projected space (revised pruning
// property 1, §5.3) with the revised bound U'; intra-cluster pruning is
// identical to CSSI (original space, bound U). Results are approximate:
// the projection contracts distances, so a cluster holding a true
// neighbor can be pruned when its projected bound looks too large.
func (x *Index) SearchApprox(q *dataset.Object, k int, lambda float64, st *metric.Stats) []knn.Result {
	return x.SearchOptionsInto(nil, q, k, lambda, SearchOptions{Approx: true}, st)
}

func (x *Index) searchApproxWith(sc *searchScratch, dst []knn.Result, q *dataset.Object, k int, lambda float64, st *metric.Stats) []knn.Result {
	var phase time.Time
	if sc.obs != nil {
		phase = time.Now()
	}
	qProj := sc.qProj
	x.pcaModel.TransformInto(qProj, q.Vec)

	x.fillSpatialCentroidDists(sc, q)
	// Semantic centroid distances in the projected space (m-dimensional,
	// much cheaper than CSSI's n-dimensional sort — the m·K·logK term of
	// Table 2).
	for t := range sc.dtqProj {
		sc.dtqProj[t] = x.space.SemanticProjVec(qProj, x.tCentProj[t])
	}

	// CSSIA's inter-cluster bounds live entirely in the projected space
	// (§5.3), so the semantic sides enter the frontier final.
	x.fillSpatialTerms(sc, lambda)
	f := x.startFrontier(sc, q, 1-lambda, sc.dtqProj, x.tRadProj, true)
	if sc.obs != nil {
		sc.obs.ClustersTotal += int64(len(x.clusters))
		sc.obs.OrderNanos += time.Since(phase).Nanoseconds()
		phase = time.Now()
	}

	cands := sc.cands[:0]
	tombs := x.deltaTombs()
	u := math.Inf(1)      // distance to current k-NN in the original space
	uPrime := math.Inf(1) // distance to current k-NN in the projected space
	// sc.dtq caches the original-space semantic centroid distances that
	// intra-cluster pruning needs, computed lazily per examined cluster.
	for t := range sc.dtqKnown {
		sc.dtqKnown[t] = false
	}

clusters:
	for {
		c, lb, ok := f.peek()
		if !ok {
			break
		}
		if len(cands) >= k && lb >= uPrime {
			// Revised pruning property 1 (§5.3) in the projected space.
			f.chargePruned(st)
			break
		}
		if sc.budgetExpired() {
			break
		}
		f.pop(c)
		if st != nil {
			st.ClustersOrdered++
			st.ClustersExamined++
		}
		blk, g, keep, ok := x.enterCluster(sc, q, lambda, c, sc.dsq[c.s], x.centroidDist(sc, q, c.t), u, len(cands) >= k, st)
		if !ok {
			continue
		}
		next := 0 // as in scanCluster
		for _, p := range keep {
			ei := int(p)
			e := &c.elems[ei]
			full := len(cands) >= k
			if full && g.suffixBound(e) > u {
				// Pruning property 2 (as in CSSI, original space).
				if st != nil {
					x.chargeTail(c, blk, g, &unrestricted, next, ei, u, st)
				}
				continue clusters
			}
			if st != nil && next < ei {
				x.chargeDropped(c, blk, &unrestricted, next, ei, st)
			}
			next = ei + 1
			if tombs != nil && tombs.get(e.idx) {
				continue
			}
			if st != nil {
				st.VisitedObjects++
			}
			ds := x.space.Spatial(st, q.X, q.Y, blk.xs[ei], blk.ys[ei])
			// A candidate only joins R with d < U, so a row whose stored
			// lower bound already puts it beyond U is one the kernel below
			// would abandon: skipping it changes no answer.
			if full && metric.Combine(lambda, ds, g.semLower(ei, e)) > u {
				if st != nil {
					st.AnchorPruned++
				}
				continue
			}
			ov := x.vecAt(e.idx)
			var dt float64
			if full && lambda < 1 {
				// Early abandonment (see scanCluster): a candidate only
				// joins R with d < U, i.e. dt < (U − λ·ds)/(1−λ).
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
			d := metric.Combine(lambda, ds, dt)
			if d < u || len(cands) < k {
				dpr := metric.Combine(lambda, ds, x.space.SemanticProjVec(qProj, x.projAt(e.idx)))
				cands.push(cand{id: x.ids[e.idx], d: d, dpr: dpr})
				if len(cands) > k {
					cands.popMax()
				}
				if len(cands) == k {
					u = cands[0].d
					uPrime = cands.maxDPr()
				}
			}
		}
		if st != nil {
			// The rows after the last kept one: dropped, or past the cut.
			x.chargeTail(c, blk, g, &unrestricted, next, g.cut, u, st)
		}
	}
	// The write overlay is scanned in full with the exact kernel: every
	// live overlay insert is offered to the candidate pool, so CSSIA's
	// recall over overlay inserts is never worse than over a compacted
	// base (and tombstoned base objects, skipped above, can never
	// resurface).
	var deltaSpent int64
	if d := x.delta; d != nil && d.liveCount > 0 {
		var td time.Time
		if sc.obs != nil {
			td = time.Now()
		}
		for pos := range d.objs {
			if d.dead.get(uint32(pos)) {
				continue
			}
			o := &d.objs[pos]
			if st != nil {
				st.VisitedObjects++
			}
			ds := x.space.Spatial(st, q.X, q.Y, o.X, o.Y)
			var dt float64
			if len(cands) >= k && lambda < 1 {
				dtBound := (u - lambda*ds) / (1 - lambda)
				var ok bool
				dt, ok = x.space.SemanticBound(st, q.Vec, o.Vec, dtBound)
				if !ok {
					if sc.obs != nil {
						sc.obs.EarlyAbandons++
					}
					continue
				}
			} else {
				dt = x.space.Semantic(st, q.Vec, o.Vec)
			}
			dd := metric.Combine(lambda, ds, dt)
			if dd < u || len(cands) < k {
				dpr := metric.Combine(lambda, ds, x.space.SemanticProjVec(qProj, d.projRow(uint32(pos))))
				cands.push(cand{id: o.ID, d: dd, dpr: dpr})
				if len(cands) > k {
					cands.popMax()
				}
				if len(cands) == k {
					u = cands[0].d
				}
			}
		}
		if sc.obs != nil {
			deltaSpent = time.Since(td).Nanoseconds()
			sc.obs.DeltaNanos += deltaSpent
		}
	}
	n := len(dst)
	for _, c := range cands {
		dst = append(dst, knn.Result{ID: c.id, Dist: c.d})
	}
	knn.SortResults(dst[n:])
	if sc.obs != nil {
		// DeltaNanos is disjoint from ScanNanos by contract: carve the
		// overlay window out of the scan window that encloses it here.
		sc.obs.ScanNanos += time.Since(phase).Nanoseconds() - deltaSpent
	}
	sc.cands = cands[:0]
	return dst
}
