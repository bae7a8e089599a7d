package core

import (
	"repro/internal/dataset"
	"repro/internal/knn"
	"repro/internal/metric"
)

// AblationOptions are the ablation switches for SearchAblated: they disable
// individual pruning mechanisms so their contribution can be measured
// (the design-choice ablations called out in DESIGN.md). All pruning
// enabled is the paper's Alg. 2 as printed — the original Lemma 4.5 cut
// behind the enclosed-query test, no per-row gate (see rowGate) — so it
// answers exactly what Search answers while visiting more, and is the
// reference the tests hold Search against; with everything disabled the
// algorithm degenerates to a cluster-ordered scan. Results are identical
// in all configurations — pruning only ever skips objects that cannot be
// results (Lemmas 4.4 and 4.5) — which the test suite verifies.
type AblationOptions struct {
	// DisableInterCluster turns off pruning property 1 (Lemma 4.4):
	// every hybrid cluster is examined.
	DisableInterCluster bool
	// DisableIntraCluster turns off pruning property 2 (Lemma 4.5):
	// every object of an examined cluster is evaluated.
	DisableIntraCluster bool
	// DisableClusterOrder skips sorting clusters by L(q,C); clusters are
	// examined in arbitrary (storage) order, which weakens inter-cluster
	// pruning to a filter instead of a cut-off.
	DisableClusterOrder bool
}

// SearchAblated is Search with individual pruning mechanisms switched
// off. It remains exact for every combination of switches.
func (x *Index) SearchAblated(q *dataset.Object, k int, lambda float64, opts AblationOptions, st *metric.Stats) []knn.Result {
	// The ablation path keeps the paper-faithful eager centroid shape of
	// Alg. 2 (all semantic centroid distances up front, no weak-bound
	// refinement or early abandonment) so the measured pruning deltas
	// isolate the switches below; it still draws its buffers from the
	// scratch pool. With ordering enabled the visit order comes from the
	// same best-first frontier as Search (semantic sides enter final).
	sc := x.getScratch()
	defer x.putScratch(sc)
	x.fillSpatialCentroidDists(sc, q)
	x.fillSemanticCentroidDists(sc, q)

	h := &sc.heap
	h.Reset(k)
	if opts.DisableClusterOrder {
		// Storage order: the cut-off is unsound without ordering, so
		// inter-cluster pruning degrades to a per-cluster filter.
		for _, c := range x.clusters {
			if !opts.DisableInterCluster {
				lb := lowerBound(lambda, sc.dsq[c.s], x.sRad[c.s], sc.dtq[c.t], x.tRad[c.t])
				if u, full := h.Bound(); full && lb >= u {
					if st != nil {
						st.ClustersPruned++
						st.InterPruned += int64(len(c.elems))
					}
					continue
				}
			}
			x.scanClusterAblated(q, lambda, c, sc.dsq[c.s], sc.dtq[c.t], h, st, opts.DisableIntraCluster)
		}
		x.scanDelta(sc, q, lambda, h, st)
		return h.AppendSorted(nil)
	}
	x.fillSpatialTerms(sc, lambda)
	f := x.startFrontier(sc, q, 1-lambda, sc.dtq, x.tRad, true)
	for {
		c, lb, ok := f.peek()
		if !ok {
			break
		}
		if !opts.DisableInterCluster {
			if u, full := h.Bound(); full && lb >= u {
				f.chargePruned(st)
				break
			}
		}
		f.pop(c)
		if st != nil {
			st.ClustersOrdered++
		}
		x.scanClusterAblated(q, lambda, c, sc.dsq[c.s], sc.dtq[c.t], h, st, opts.DisableIntraCluster)
	}
	// The overlay scan is not ablatable — its group pruning is part of
	// the overlay subsystem, not of the mechanisms under study — and it
	// keeps ablated results exact over base + delta.
	x.scanDelta(sc, q, lambda, h, st)
	return h.AppendSorted(nil)
}

// scanClusterAblated is scanCluster with the intra-cluster pruning
// optionally disabled.
func (x *Index) scanClusterAblated(q *dataset.Object, lambda float64, c *hybrid, dsqC, dtqC float64, h *knn.Heap, st *metric.Stats, noIntra bool) {
	if st != nil {
		st.ClustersExamined++
	}
	enclosed := dsqC < x.sRad[c.s] && dtqC < x.tRad[c.t]
	dqC := lambda*dsqC + (1-lambda)*dtqC
	tombs := x.deltaTombs()
	for ei := range c.elems {
		e := &c.elems[ei]
		if !noIntra && !enclosed {
			if u, full := h.Bound(); full {
				bound := lambda*e.ds + (1-lambda)*e.dt
				if dqC-bound > u {
					if st != nil {
						st.IntraPruned += int64(len(c.elems) - ei)
					}
					return
				}
			}
		}
		if tombs != nil && tombs.get(e.idx) {
			continue
		}
		o := &x.objects[e.idx]
		d := x.space.Distance(st, lambda, q, o)
		h.Push(knn.Result{ID: o.ID, Dist: d})
	}
}
