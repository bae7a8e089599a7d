package core

import (
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/internal/kmeans"
	"repro/internal/metric"
	"repro/internal/par"
)

// Anchor bound: a row-level pivot filter in front of the semantic
// kernels.
//
// The paper clusters the semantic side in the m-dimensional PCA space
// (Alg. 1), so the original-space radii that Eq. 4 and Lemma 4.5 prune
// with are fat: most rows of an examined cluster reach a distance kernel
// although they are nowhere near the query. The index therefore keeps K
// anchor points in the original space and, for every stored row o, the
// id a_o of one anchor and the normalized distance d_o = dt(o, a_o). A
// query computes dq[a] = dt(q, a) for the K anchors once, and the reverse
// triangle inequality
//
//	dt(q,o) ≥ |dt(q,a_o) − dt(o,a_o)| = |dq[a_o] − d_o|
//
// gives every row a certain lower bound on its semantic distance for two
// loads and a subtraction. A scan loop skips the row when even that
// bound puts λ·ds + (1−λ)·dt beyond what the query can still use. The
// bound holds for ANY anchor, nearest or not — the assignment only
// decides how tight it is — so nothing about exactness depends on how
// anchors are fitted or assigned.
//
// Storage is 5 B per row (uint8 id + float32 distance), derived and
// never serialized: Build, Rebuild, RebuildFresh and Load fit and assign
// it, Save ignores it. Rows inserted afterwards carry anchorSentinel with
// distance 0; the query's dq[anchorSentinel] is 0 too, so their bound is
// 0 and they never prune — the write path does no anchor search, and the
// next rebuild or load anchors them. The arena follows the other
// per-row arenas: append-only, shared across COW clones, a window of it
// per contiguous cluster and a gathered copy otherwise (clusterBlock).
// The anchors apply to the Euclidean semantic metric only; other metrics
// get an empty anchor set, which leaves every row on the sentinel.

const (
	// anchorSentinel is the id of a row without an anchor. Anchor ids
	// stay below it, which caps the anchor count at 255.
	anchorSentinel = 255
	// anchorSampleRows and anchorFitIters size the K-Means that places
	// the anchors: tightness saturates early, a bigger fit buys nothing.
	anchorSampleRows = 512
	anchorFitIters   = 2
	// anchorPrefixDims is how many leading dimensions rank the anchors
	// when a row picks its own; only the winner pays a full distance.
	anchorPrefixDims = 16
)

// anchorRelSlack and anchorAbsSlack deflate the anchor bound into a
// certain one. The stored distance is rounded to float32 (2⁻²⁴ relative,
// 7e-46 absolute at the subnormal end) and both distances are float64
// reductions over float32 inputs (≈1e-14 relative); the relative slack
// covers those with a factor above 10, the absolute one the subnormal
// case and the last-bit disagreements between a bound assembled from
// two roundings and the kernel's own result. In normalized units the
// pair costs no measurable pruning.
const (
	anchorRelSlack = 1e-6
	anchorAbsSlack = 1e-5
)

// Anchors is an immutable set of anchor points. One set may serve
// several indexes over parts of one corpus (BuildSharded fits it once).
type Anchors struct {
	pts [][]float32
	// prefix repeats the leading p dimensions of every point back to
	// back, the only memory the assignment ranking reads per anchor.
	prefix []float32
	p      int
}

// anchorArena is the per-row anchor storage of one index, parallel to
// objects. CloneForWrite copies the struct so clones grow their own
// slice headers; set is shared.
type anchorArena struct {
	set  *Anchors
	id   []uint8
	dist []float32
}

// FitAnchors places cfg.Kt (at most 255) anchors over ds for
// BuildWithAnchors. It returns an empty set under a non-Euclidean
// semantic metric.
func FitAnchors(ds *dataset.Dataset, space *metric.Space, cfg Config) *Anchors {
	cfg.applyDefaults(ds.Len())
	return fitAnchors(ds.Len(), func(i int) []float32 { return ds.Objects[i].Vec }, space, cfg.Kt, cfg.Seed, cfg.Workers)
}

// fitAnchors places min(k, 255) anchors with a small seeded K-Means (on up
// to workers goroutines) over an evenly strided sample of the n rows.
func fitAnchors(n int, row func(i int) []float32, space *metric.Space, k int, seed uint64, workers int) *Anchors {
	a := &Anchors{}
	if space.SemanticKind != metric.EuclideanSemantic || n == 0 || k < 1 {
		return a
	}
	if k > anchorSentinel {
		k = anchorSentinel
	}
	stride := n / anchorSampleRows
	if stride < 1 {
		stride = 1
	}
	sample := make([][]float32, 0, anchorSampleRows)
	for i := int(seed % uint64(stride)); i < n && len(sample) < anchorSampleRows; i += stride {
		sample = append(sample, row(i))
	}
	res, err := kmeans.Fit(sample, kmeans.Config{K: k, MaxIters: anchorFitIters, Seed: seed + 2, Workers: workers})
	if err != nil {
		return a // unreachable: the sample is non-empty and k ≥ 1
	}
	a.pts = res.Centroids
	a.p = len(a.pts[0])
	if a.p > anchorPrefixDims {
		a.p = anchorPrefixDims
	}
	a.prefix = make([]float32, 0, len(a.pts)*a.p)
	for _, pt := range a.pts {
		a.prefix = append(a.prefix, pt[:a.p]...)
	}
	return a
}

// assign picks v's anchor — the nearest over the prefix dimensions —
// and returns its id with the full normalized distance to it. Anchors
// are ranked four per pass over the prefix: each keeps its own float32
// accumulator summed in dimension order (the explicit conversions keep a
// compiler from fusing the multiply-add), and the four are compared in id
// order with a strict <, so the pick is the one a one-anchor-at-a-time
// loop makes — the four dependency chains just overlap.
func (a *Anchors) assign(space *metric.Space, v []float32) (uint8, float32) {
	if len(a.pts) == 0 {
		return anchorSentinel, 0
	}
	p := a.p
	head := v[:p]
	n := len(head) // = p, spelled so the compiler drops the bounds checks below
	best, bestSq := 0, float32(math.Inf(1))
	k := 0
	for ; k+4 <= len(a.pts); k += 4 {
		pre := a.prefix[k*p : (k+4)*p]
		pre0, pre1, pre2, pre3 := pre[:n], pre[p:][:n], pre[2*p:][:n], pre[3*p:][:n]
		var sq0, sq1, sq2, sq3 float32
		for j, h := range head {
			d0, d1, d2, d3 := h-pre0[j], h-pre1[j], h-pre2[j], h-pre3[j]
			sq0 += float32(d0 * d0)
			sq1 += float32(d1 * d1)
			sq2 += float32(d2 * d2)
			sq3 += float32(d3 * d3)
		}
		if sq0 < bestSq {
			best, bestSq = k, sq0
		}
		if sq1 < bestSq {
			best, bestSq = k+1, sq1
		}
		if sq2 < bestSq {
			best, bestSq = k+2, sq2
		}
		if sq3 < bestSq {
			best, bestSq = k+3, sq3
		}
	}
	for ; k < len(a.pts); k++ {
		pre := a.prefix[k*p:][:n]
		var sq float32
		for j, h := range head {
			d := h - pre[j]
			sq += float32(d * d)
		}
		if sq < bestSq {
			best, bestSq = k, sq
		}
	}
	return uint8(best), float32(space.SemanticVec(v, a.pts[best]))
}

// buildAnchors anchors every stored row. With a nil set it fits one over
// this index's own rows first, as many as it has semantic clusters.
func (x *Index) buildAnchors(set *Anchors) *anchorArena {
	n := len(x.objects)
	if set == nil {
		set = fitAnchors(n, func(i int) []float32 { return x.vecAt(uint32(i)) }, x.space, len(x.tCent), x.cfg.Seed, x.cfg.Workers)
	}
	aa := &anchorArena{set: set, id: make([]uint8, n), dist: make([]float32, n)}
	par.For(n, x.cfg.Workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			aa.id[i], aa.dist[i] = set.assign(x.space, x.vecAt(uint32(i)))
		}
	})
	return aa
}

// appendAnchorRow gives the just-appended object its sentinel row.
func (x *Index) appendAnchorRow() {
	aa := x.anchors
	aa.id = append(aa.id, anchorSentinel)
	aa.dist = append(aa.dist, 0)
}

// fillAnchorDists computes the query's distance to every anchor into
// sc.anchorDq, once per query, on the first cluster scan that gates.
func (x *Index) fillAnchorDists(sc *searchScratch, q *dataset.Object) {
	for a, pt := range x.anchors.set.pts {
		sc.anchorDq[a] = x.space.SemanticVec(q.Vec, pt)
	}
	sc.anchorQ = true
}

// rowGate holds what the pre-kernel checks of one cluster scan read: the
// weights, the query's two centroid distances, and the cluster's window
// of the anchor arena. It lives in the searchScratch (one per query,
// refilled per cluster by enterCluster). The scan loops of Search,
// SearchFiltered, RangeSearch, SearchInBox and CSSIA share it;
// SearchAblated keeps the paper's original Lemma 4.5 and no row check,
// and is the reference the tests compare against.
type rowGate struct {
	lambda, invLam float64
	dsq, dtq       float64
	aid            []uint8
	adist          []float32
	dq             *[anchorSentinel + 1]float64
}

// enterCluster is the one way into a gated cluster scan. It sets the
// scratch's gate for scanning c under weight lambda, with dsq and dtq
// the query's distances to c's two centroids, and — when bounded —
// first tests the Lemma 4.5 cut against c's head thresholds. They bound
// the whole array, so a cluster the cut rejects there costs the hybrid
// header and nothing else: no block, no anchor window, no row. It is
// the cut the scan loop would take at row 0, on the same operands, and
// is charged like it (the whole array to IntraPruned; pass a nil st to
// charge nothing). Otherwise the scan block and the gate come back
// ready, both resident in sc.
func (x *Index) enterCluster(sc *searchScratch, q *dataset.Object, lambda float64, c *hybrid, dsq, dtq, u float64, bounded bool, st *metric.Stats) (*clusterBlock, *rowGate, bool) {
	g := &sc.gate
	g.lambda, g.invLam, g.dsq, g.dtq = lambda, 1-lambda, dsq, dtq
	if bounded && g.bound(c.headDs, c.headDt) > u {
		if st != nil {
			st.IntraPruned += int64(len(c.elems))
		}
		return nil, nil, false
	}
	if !sc.anchorQ {
		x.fillAnchorDists(sc, q)
	}
	blk := x.block(&sc.blk, c)
	g.aid, g.adist, g.dq = blk.aid, blk.adist, &sc.anchorDq
	return blk, g, true
}

// suffixBound is Lemma 4.5 taken per component: a lower bound on
// d(q,o) for the object of element e and of every later element. The TA
// thresholds bound each component over the whole suffix (ds(o,Cs) ≤ e.ds
// and dt(o,Ct) ≤ e.dt), so by the triangle inequality in each space
// ds(q,o) ≥ dsq − e.ds and dt(q,o) ≥ dtq − e.dt, each clamped at zero.
// It is non-decreasing along the array and never below the paper's
// d(q,C) − (λ·e.ds + (1−λ)·e.dt), whose negative component cancels part
// of the positive one — and it needs no enclosed-query special case
// (Alg. 2 line 9): inside both balls both components clamp to zero.
func (g *rowGate) suffixBound(e *element) float64 {
	return g.bound(e.ds, e.dt)
}

// bound is suffixBound for a threshold pair.
func (g *rowGate) bound(eds, edt float64) float64 {
	var b float64
	if d := g.dsq - eds; d > 0 {
		b = g.lambda * d
	}
	if d := g.dtq - edt; d > 0 {
		b += g.invLam * d
	}
	return b
}

// semLower returns a certain lower bound on dt(q,o) for the object of
// element e at block position ei: the better of its threshold bound
// dtq − e.dt and its anchor bound, deflated. It may be negative.
func (g *rowGate) semLower(ei int, e *element) float64 {
	return anchorLower(g.dq[g.aid[ei]], float64(g.adist[ei]), g.dtq-e.dt)
}

// anchorLower deflates max(|dq − d|, floor) into a certain lower bound,
// where dq and d are the computed distances from the query and from the
// row to one anchor, d rounded to float32.
func anchorLower(dq, d, floor float64) float64 {
	gap := dq - d
	if gap < 0 {
		gap = -gap
	}
	gap -= anchorRelSlack * (dq + d)
	if gap < floor {
		gap = floor
	}
	return gap - anchorAbsSlack
}

// checkAnchors verifies the anchor arena: one row per stored object,
// every id an anchor or the sentinel, sentinel rows at distance zero,
// and — for a sample of rows — the stored distance equal to the
// recomputed one bit for bit. The bound itself is probed with live
// objects as queries: deflated, it must never exceed the true distance.
func (x *Index) checkAnchors() error {
	aa := x.anchors
	if aa == nil {
		return fmt.Errorf("index has no anchor arena")
	}
	n, k := len(x.objects), len(aa.set.pts)
	if len(aa.id) != n || len(aa.dist) != n {
		return fmt.Errorf("anchor arena holds %d/%d rows for %d objects", len(aa.id), len(aa.dist), n)
	}
	if k > anchorSentinel {
		return fmt.Errorf("%d anchors, at most %d fit a row id", k, anchorSentinel)
	}
	if k > 0 && x.space.SemanticKind != metric.EuclideanSemantic {
		return fmt.Errorf("%d anchors under a non-Euclidean semantic metric", k)
	}
	for i, id := range aa.id {
		if id == anchorSentinel {
			if aa.dist[i] != 0 {
				return fmt.Errorf("object %d: sentinel anchor row with distance %v", i, aa.dist[i])
			}
		} else if int(id) >= k {
			return fmt.Errorf("object %d: anchor id %d of %d", i, id, k)
		}
	}
	step := n/256 + 1
	for i := 0; i < n; i += step {
		id := aa.id[i]
		if id == anchorSentinel {
			continue
		}
		want := float32(x.space.SemanticVec(x.vecAt(uint32(i)), aa.set.pts[id]))
		if math.Float32bits(want) != math.Float32bits(aa.dist[i]) {
			return fmt.Errorf("object %d: stored anchor distance %v, recomputed %v", i, aa.dist[i], want)
		}
		for j := i % 7; j < n; j += 7 * step {
			dq := x.space.SemanticVec(x.vecAt(uint32(j)), aa.set.pts[id])
			truth := x.space.SemanticVec(x.vecAt(uint32(j)), x.vecAt(uint32(i)))
			if lb := anchorLower(dq, float64(aa.dist[i]), math.Inf(-1)); lb > truth {
				return fmt.Errorf("objects %d vs %d: anchor bound %v exceeds true distance %v", j, i, lb, truth)
			}
		}
	}
	return nil
}
