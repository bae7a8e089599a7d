package core

import (
	"math"
	"slices"
	"time"

	"repro/internal/dataset"
	"repro/internal/knn"
	"repro/internal/metric"
	"repro/internal/par"
	"repro/internal/route"
)

// Learned cluster routing. A small logistic model (internal/route) is
// trained at build time from sampled self-queries to predict which
// hybrid clusters contain true top-k results, from exactly the
// centroid-level signals every query already computes for the weak
// lower bound — so scoring all K clusters costs a few multiply-adds
// per cluster on top of work the search was doing anyway. Its one
// consumer is approximate search (Route+Approx): searchRoutedWith
// visits clusters in descending predicted probability until the
// requested share of the total predicted probability mass is covered —
// the CSSIA idea with the geometric projected bound replaced by the
// trained predictor, and recall tuned by RouteTarget instead of a
// projection dimension. Exact queries ignore it: where the admissible
// Eq. 4 bound decides what is examined, reordering the visit cannot
// change it (see DESIGN.md §4b).
//
// The model is immutable after training: COW clones and snapshots
// share it by pointer, Rebuild/RebuildFresh retrain it (they rebuild
// through Build), and persistence stores the weights (persist v4) with
// retrain-on-load for older files.

// routeFeatureCount is the width of the per-(query,cluster) feature
// vector. Keyword overlap is deliberately absent: the keyword-filtered
// path bypasses cluster routing entirely (it scans posting lists, not
// clusters), so the signal would never be consulted.
const routeFeatureCount = 7

// DefaultRouteTarget is the probability-mass coverage searchRoutedWith
// uses when the request leaves RouteTarget zero. The trained model is
// recalibrated (Platt scaling, see route.Train) so predicted
// probabilities are honest; covering 90% of the predicted mass holds
// recall@10 ≥ 0.95 on the benchmark workloads with a comfortable
// margin while visiting a fraction of the clusters the exact search
// examines (the routing experiment records the full recall/latency
// curve).
const DefaultRouteTarget = 0.9

const (
	// routeTrainQueries/routeTrainK size the self-query training set.
	routeTrainQueries = 64
	routeTrainK       = 10
	// routeTrainMinLive skips training tiny indexes where routing can
	// not beat simply scanning (and single-class labels are likely).
	routeTrainMinLive = 64
	// routeNegPerQuery bounds the negatives kept per training query
	// (deterministic stride subsampling): full negative sets would
	// swamp both the class balance and the training cost at large K.
	routeNegPerQuery = 48
)

// routeTrainLambdas are the λ values the self-queries train across, so
// the λ feature sees the span of mixes instead of a point mass.
var routeTrainLambdas = [...]float64{0.25, 0.5, 0.75}

// routeFeats assembles one cluster's feature vector. dtEst is the
// semantic ordering estimate the current path uses (the weak projected
// lower bound under the lazy ordering, the true centroid distance
// otherwise) — training uses the same estimate the queries will, so
// the model never sees a distribution it was not fitted on.
func routeFeats(f []float64, lambda, dsq, sRad, dtEst, tRad, lb, sizeFrac float64) {
	f[0] = dsq
	f[1] = dsq - sRad // spatial slack: negative inside the ball
	f[2] = dtEst
	f[3] = dtEst - tRad // semantic slack
	f[4] = lb
	f[5] = sizeFrac
	f[6] = lambda
}

// routeDtEst returns the semantic ordering estimate for side-cluster t
// from whichever bound fill ran (see routeFeats).
func (sc *searchScratch) routeDtEst(lazy bool, t int) float64 {
	if lazy {
		return sc.dtqProj[t]
	}
	return sc.dtq[t]
}

// routeTargetOrDefault normalizes a request's RouteTarget.
func routeTargetOrDefault(t float64) float64 {
	if t <= 0 {
		return DefaultRouteTarget
	}
	if t > 1 {
		return 1
	}
	return t
}

// trainRouter fits the routing model from deterministic self-queries:
// stored objects are replayed as queries, the exact top-k labels the
// clusters that held a result, and every cluster contributes a feature
// row (negatives subsampled by a fixed stride). Returns nil — routing
// then falls back to the unrouted algorithms — when the index is too
// small to benefit or the training set is degenerate. Runs after the
// cluster arrays are built: the labeling queries are ordinary exact
// searches against the finished index.
func (x *Index) trainRouter() *route.Model {
	if x.live < routeTrainMinLive || len(x.clusters) < 4 {
		return nil
	}
	nq := routeTrainQueries
	if nq > x.live {
		nq = x.live
	}
	// Deterministic sample of live objects, keyed by the build seed
	// (same discipline as sampleRows) and drawn in ID order, so the
	// model depends on the data and not on the storage order. IDs are
	// unique among live objects, so sorting (ID, position) words orders
	// by ID.
	byID := make([]uint64, 0, x.live)
	for i, id := range x.ids {
		if !x.deleted.get(uint32(i)) {
			byID = append(byID, uint64(id)<<32|uint64(i))
		}
	}
	slices.Sort(byID)
	stride := len(byID) / nq
	if stride < 1 {
		stride = 1
	}
	picks := make([]uint32, 0, nq)
	for i := int(x.cfg.Seed % uint64(stride)); i < len(byID) && len(picks) < nq; i += stride {
		picks = append(picks, uint32(byID[i]))
	}

	lazy := x.lazyOrderable()
	invN := 1.0 / float64(x.live)
	negStride := (len(x.clusters) + routeNegPerQuery - 1) / routeNegPerQuery
	// Every query labels into its own block of one feature slab (at most
	// routeTrainK positive clusters and routeNegPerQuery kept negatives),
	// so the queries run in parallel and the training set — the blocks in
	// query order — does not depend on the worker count.
	const blockRows = routeTrainK + routeNegPerQuery
	feats := make([]float64, len(picks)*blockRows*routeFeatureCount)
	blockLabels := make([]bool, len(picks)*blockRows)
	blockLen := make([]int, len(picks))
	par.For(len(picks), x.cfg.Workers, func(lo, hi int) {
		pos := make(map[*hybrid]bool, routeTrainK)
		results := make([]knn.Result, 0, routeTrainK)
		sc := x.getScratch()
		defer x.putScratch(sc)
		for qi := lo; qi < hi; qi++ {
			p := picks[qi]
			q := dataset.Object{X: x.xArena[p], Y: x.yArena[p], Vec: x.vecAt(p)}
			lambda := routeTrainLambdas[qi%len(routeTrainLambdas)]

			// Exact answer → positive clusters. The query is a stored
			// object, so its own cluster is always positive (distance 0).
			results = x.SearchOptionsInto(results[:0], &q, routeTrainK, lambda, SearchOptions{}, nil)
			clear(pos)
			for _, r := range results {
				idx, ok := x.idIdx.get(r.ID)
				if !ok {
					continue
				}
				if c := x.grid[x.cell(int(x.sAssign[idx]), int(x.tAssign[idx]))]; c != nil {
					pos[c] = true
				}
			}
			if len(pos) == 0 {
				continue
			}

			// Feature rows from the same bound fills the queries use.
			x.fillSpatialCentroidDists(sc, &q)
			if lazy {
				x.fillProjLowerBounds(sc, &q)
			} else {
				x.fillSemanticCentroidDists(sc, &q)
			}
			row, negSeen := qi*blockRows, 0
			for _, c := range x.clusters {
				label := pos[c]
				if !label {
					negSeen++
					if negSeen%negStride != 0 {
						continue
					}
				}
				dtEst := sc.routeDtEst(lazy, c.t)
				lb := lowerBound(lambda, sc.dsq[c.s], x.sRad[c.s], dtEst, x.tRad[c.t])
				f := feats[row*routeFeatureCount : (row+1)*routeFeatureCount : (row+1)*routeFeatureCount]
				routeFeats(f, lambda, sc.dsq[c.s], x.sRad[c.s], dtEst, x.tRad[c.t], lb, float64(len(c.elems))*invN)
				blockLabels[row] = label
				row++
			}
			blockLen[qi] = row - qi*blockRows
		}
	})
	rows := make([][]float64, 0, len(blockLabels))
	labels := make([]bool, 0, len(blockLabels))
	for qi, n := range blockLen {
		for row := qi * blockRows; row < qi*blockRows+n; row++ {
			rows = append(rows, feats[row*routeFeatureCount:(row+1)*routeFeatureCount])
			labels = append(labels, blockLabels[row])
		}
	}
	m, err := route.Train(rows, labels, route.TrainConfig{})
	if err != nil {
		return nil // degenerate set: run unrouted
	}
	return m
}

// Router exposes the trained routing model (nil when the index is too
// small or training was degenerate); tests and the persistence layer
// read it.
func (x *Index) Router() *route.Model { return x.router }

// setRouter installs a trained model together with its folded
// inference form — the only shape the query path touches, so scoring a
// cluster is one fused multiply-add per feature.
func (x *Index) setRouter(m *route.Model) {
	x.router = m
	if m != nil {
		x.routerFold = m.Fold()
	} else {
		x.routerFold = route.Folded{}
	}
}

// searchRoutedWith is the routed approximate mode: clusters are
// visited in descending predicted probability until the visited share
// of the total predicted probability mass reaches target (and the heap
// holds k results), and every visited cluster is scanned exactly. The
// answer is the exact top-k over the union of visited clusters, so
// recall is governed purely by cluster coverage — the knob target
// trades it against latency, ablated against CSSIA by the routing
// experiment.
func (x *Index) searchRoutedWith(sc *searchScratch, dst []knn.Result, q *dataset.Object, k int, lambda, target float64, st *metric.Stats) []knn.Result {
	var phase time.Time
	if sc.obs != nil {
		phase = time.Now()
	}
	x.fillSpatialCentroidDists(sc, q)
	lazy := x.lazyOrderable()
	if lazy {
		x.fillProjLowerBounds(sc, q)
	} else {
		x.fillSemanticCentroidDists(sc, q)
	}

	nc := len(x.clusters)
	probs := growSlice(sc.routeScore, nc)
	sc.routeScore = probs
	keys := growSlice(sc.routeKey, nc)
	sc.routeKey = keys
	var fv [routeFeatureCount]float64
	invN := 1.0
	if x.live > 0 {
		invN = 1.0 / float64(x.live)
	}
	total := 0.0
	for i, c := range x.clusters {
		dtEst := sc.routeDtEst(lazy, c.t)
		lb := lowerBound(lambda, sc.dsq[c.s], x.sRad[c.s], dtEst, x.tRad[c.t])
		routeFeats(fv[:], lambda, sc.dsq[c.s], x.sRad[c.s], dtEst, x.tRad[c.t], lb, float64(len(c.elems))*invN)
		p := x.routerFold.Predict(fv[:])
		probs[i] = p
		// Pack (probability, cluster position) into one sortable word:
		// p is non-negative, so its float32 bit pattern orders like its
		// value and the complement orders descending; the position in
		// the low half makes ties deterministic (build order). Sorting
		// primitive keys is several times faster than a comparator sort
		// over structs.
		keys[i] = uint64(^math.Float32bits(float32(p)))<<32 | uint64(uint32(i))
		total += p
	}
	// Lazy selection: a binary min-heap over the packed keys yields
	// clusters in descending probability one pop at a time. The visit
	// loop usually stops after a small prefix, so heapify O(n) + m·log n
	// pops beats sorting all n keys.
	for i := nc/2 - 1; i >= 0; i-- {
		siftDownU64(keys, i, nc)
	}
	if sc.obs != nil {
		el := time.Since(phase).Nanoseconds()
		sc.obs.ClustersTotal += int64(nc)
		sc.obs.RouteNanos += el
		sc.obs.OrderNanos += el
		phase = time.Now()
	}

	h := &sc.heap
	h.Reset(k)
	mass := 0.0
	left := nc
	for left > 0 {
		if _, full := h.Bound(); full && mass >= target*total {
			if st != nil {
				// Skipped by routing policy, not by an admissible bound;
				// still accounted as skipped work for the read-efficiency
				// metrics.
				for j := 0; j < left; j++ {
					st.ClustersPruned++
					st.InterPruned += int64(len(x.clusters[uint32(keys[j])].elems))
				}
			}
			break
		}
		if sc.budgetExpired() {
			break
		}
		ci := uint32(keys[0])
		left--
		keys[0] = keys[left]
		siftDownU64(keys[:left], 0, left)
		mass += probs[ci]
		c := x.clusters[ci]
		if st != nil {
			st.ClustersRouted++
		}
		x.scanCluster(sc, q, lambda, c, sc.dsq[c.s], x.centroidDist(sc, q, c.t), h, math.Inf(1), st)
	}
	if sc.obs != nil {
		sc.obs.ScanNanos += time.Since(phase).Nanoseconds()
	}
	// The write overlay is scanned in full (exactly): routed recall stays
	// governed by base-cluster coverage alone, and overlay inserts are
	// never missed. Scanned after the ScanNanos window closes — the
	// overlay accrues to the disjoint DeltaNanos phase inside scanDelta.
	x.scanDelta(sc, q, lambda, h, st)
	return h.AppendSorted(dst)
}

// siftDownU64 restores the min-heap property of keys[:n] from root i.
func siftDownU64(keys []uint64, i, n int) {
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && keys[r] < keys[l] {
			m = r
		}
		if keys[i] <= keys[m] {
			return
		}
		keys[i], keys[m] = keys[m], keys[i]
		i = m
	}
}
