package core

import (
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/internal/kmeans"
	"repro/internal/metric"
	"repro/internal/par"
	"repro/internal/vec"
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
// query computes dq[a] = dt(q, a) for the K anchors once (queryAnchors),
// and the reverse triangle inequality
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
// never serialized: Build, RebuildFresh and Load fit and assign it,
// Compact carries it and assigns the rows it folds in, Save ignores it.
// Every base is built by derive, so every base row is anchored. The
// overlay's inserts carry no anchor row: scanDelta never gates, the
// write path does no anchor search, and the next compaction anchors
// them. The arena follows the other per-row arenas: shared with overlay
// clones, a window of it per cluster (clusterBlock).
// The anchors apply to the Euclidean semantic metric only; other metrics
// get an empty anchor set, which leaves every row on anchorSentinel: its
// distance is 0, the query's dq[anchorSentinel] is 0 too, so the bound
// is 0 and never prunes.

const (
	// anchorSentinel is the id of a row without an anchor. Anchor ids
	// stay below it, which caps the anchor count at 255.
	anchorSentinel = 255
	// anchorCount is how many anchors every set holds (fewer only when
	// the fit sample has fewer rows), whatever the index's cluster
	// counts: Build, Load, Rebuild and a BuildSharded shard alike. A
	// query pays one distance per anchor; DESIGN §3's sweep has a coarse
	// index losing most of its gate below ≈64 anchors, and latency flat
	// from there while the kernel count keeps falling.
	anchorCount = 96
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
	// rank holds the leading anchorPrefixDims dimensions of every point,
	// the only memory the assignment ranking reads per anchor.
	rank *vec.Prefix
}

// anchorArena is the per-row anchor storage of one index, parallel to
// the other arenas; set is shared by every index anchored to it.
type anchorArena struct {
	set  *Anchors
	id   []uint8
	dist []float32
}

// FitAnchors places the fixed number of anchors every index uses over
// ds, seeded by cfg.Seed, for BuildWithAnchors; the cluster counts of
// cfg play no part. It returns an empty set under a non-Euclidean
// semantic metric.
func FitAnchors(ds *dataset.Dataset, space *metric.Space, cfg Config) *Anchors {
	return fitAnchors(ds.Len(), func(i int) []float32 { return ds.Objects[i].Vec }, space, cfg.Seed, cfg.Workers)
}

// fitAnchors places anchorCount anchors with a small seeded K-Means (on
// up to workers goroutines) over an evenly strided sample of the n rows.
func fitAnchors(n int, row func(i int) []float32, space *metric.Space, seed uint64, workers int) *Anchors {
	a := &Anchors{}
	if space.SemanticKind != metric.EuclideanSemantic || n == 0 {
		return a
	}
	stride := n / anchorSampleRows
	if stride < 1 {
		stride = 1
	}
	sample := make([][]float32, 0, anchorSampleRows)
	for i := int(seed % uint64(stride)); i < n && len(sample) < anchorSampleRows; i += stride {
		sample = append(sample, row(i))
	}
	res, err := kmeans.Fit(sample, kmeans.Config{K: anchorCount, MaxIters: anchorFitIters, Seed: seed + 2, Workers: workers})
	if err != nil {
		return a // unreachable: the sample is non-empty
	}
	a.pts = res.Centroids
	a.rank = vec.NewPrefix(a.pts, min(len(a.pts[0]), anchorPrefixDims))
	return a
}

// assign picks v's anchor — the nearest over the prefix dimensions,
// ranked by vec.Prefix (one float32 accumulator per anchor summed in
// dimension order, the first strict minimum winning) — and returns its
// id with the full normalized distance to it.
func (a *Anchors) assign(space *metric.Space, v []float32) (uint8, float32) {
	if len(a.pts) == 0 {
		return anchorSentinel, 0
	}
	best := a.rank.Nearest(v)
	return uint8(best), float32(space.SemanticVec(v, a.pts[best]))
}

// buildAnchors anchors every stored row. With a nil set it fits one over
// this index's own rows first. When x already holds anchor rows over set
// — a fold's, carried from the snapshot it folded — only its sentinel
// rows are assigned: the others hold what assign would give them.
func (x *Index) buildAnchors(set *Anchors) *anchorArena {
	n := x.rows()
	if set == nil {
		set = fitAnchors(n, func(i int) []float32 { return x.vecAt(uint32(i)) }, x.space, x.cfg.Seed, x.cfg.Workers)
	}
	aa, carried := x.anchors, x.anchors != nil && x.anchors.set == set
	if !carried {
		aa = &anchorArena{set: set, id: make([]uint8, n), dist: make([]float32, n)}
	}
	par.For(n, x.cfg.Workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if !carried || aa.id[i] == anchorSentinel {
				aa.id[i], aa.dist[i] = set.assign(x.space, x.vecAt(uint32(i)))
			}
		}
	})
	return aa
}

// queryAnchors is one query's normalized distances to one anchor set.
// A read fills one per query, lazily, in its scratch; a read that spans
// several snapshots fills one up front for its first snapshot's set
// (SearchShardsInto) and hands it to each of them, and a snapshot whose
// anchor set and semantic normalizer are the ones it was filled for
// reads it instead of computing its own. Entries from the set's size up are
// never written and stay 0 — dq[anchorSentinel] in particular.
type queryAnchors struct {
	set   *Anchors
	dtMax float64
	dq    [anchorSentinel + 1]float64
}

// fillAnchorDists computes q's distances to x's anchor set into ad and
// returns ad.
func (x *Index) fillAnchorDists(ad *queryAnchors, q *dataset.Object) *queryAnchors {
	ad.set, ad.dtMax = x.anchors.set, x.space.DtMax
	for a, pt := range ad.set.pts {
		ad.dq[a] = x.space.SemanticVec(q.Vec, pt)
	}
	return ad
}

// anchorDists returns the query's distances to x's anchor set, once per
// query, on the first cluster scan that gates: the read's shared vector
// when it was filled for this set and normalizer, else the scratch's
// own, filled now.
func (x *Index) anchorDists(sc *searchScratch, q *dataset.Object) *queryAnchors {
	if sc.anchorQ == nil {
		if ad := sc.anchorShared; ad != nil && ad.set == x.anchors.set && ad.dtMax == x.space.DtMax {
			sc.anchorQ = ad
		} else {
			sc.anchorQ = x.fillAnchorDists(&sc.anchorOwn, q)
		}
	}
	return sc.anchorQ
}

// rowGate holds what the pre-kernel checks of one cluster scan read: the
// weights, the query's two centroid distances, and the cluster's window
// of the anchor arena. It lives in the searchScratch (one per query,
// refilled per cluster by enterCluster). Its one row loop is
// scanCluster, for the exact read whatever radius, window or predicate
// restricts it and for CSSIA; SearchAblated keeps the paper's original
// Lemma 4.5 and no row check, and is the reference the tests compare
// against.
//
// Each loop is two passes over the cluster's block. The gate pass
// (gateRows) runs once, against the bound u0 at cluster entry: it finds
// where the suffix cut falls at u0 and drops every row before it whose
// anchor cut certainly holds at u0, deciding that from the squared
// spatial length (metric.Space.SpatialBeyond) — no square root, no
// division. The bound only
// falls during a scan, so a dropped row is one the row loop would drop
// at its own, lower bound: by the same anchor cut, or by an earlier
// suffix cut, a tombstone or the read's restriction. The row loop then
// runs every per-row check, unchanged, on the kept rows in block order
// against the current bound, and gives the same pushes. A counted read
// charges each dropped row where a loop over every row would have
// (chargeDropped, chargeTail).
type rowGate struct {
	lambda, invLam float64
	// perLam is 1/λ (+Inf at λ = 0): it turns the gate pass's combined
	// budget into a spatial one.
	perLam   float64
	dsq, dtq float64
	// u0 is the bound the gate pass ran against (+Inf unbounded), and
	// cut where it stopped: the suffix cut at u0, or the block's end.
	u0    float64
	cut   int
	aid   []uint8
	adist []float32
	dq    *[anchorSentinel + 1]float64
}

// enterCluster is the one way into a gated cluster scan. It sets the
// scratch's gate for scanning c under weight lambda, with dsq and dtq
// the query's distances to c's two centroids, and — when bounded —
// first tests the Lemma 4.5 cut against c's head thresholds. They bound
// the whole array, so a cluster the cut rejects there costs the hybrid
// header and nothing else: no block, no anchor window, no row. It is
// the cut the scan loop would take at row 0, on the same operands, and
// is charged like it (the array's live rows to IntraPruned; pass a nil
// st to charge nothing). Otherwise the scan block, the gate and the block
// positions the gate pass keeps against u come back ready, all resident
// in sc.
func (x *Index) enterCluster(sc *searchScratch, q *dataset.Object, lambda float64, c *hybrid, dsq, dtq, u float64, bounded bool, st *metric.Stats) (*clusterBlock, *rowGate, []int32, bool) {
	g := &sc.gate
	g.lambda, g.invLam, g.perLam, g.dsq, g.dtq = lambda, 1-lambda, 1/lambda, dsq, dtq
	if bounded && g.bound(c.headDs, c.headDt) > u {
		if st != nil {
			st.IntraPruned += x.liveElems(c)
		}
		return nil, nil, nil, false
	}
	ad := x.anchorDists(sc, q)
	blk := x.block(&sc.blk, c)
	g.aid, g.adist, g.dq = blk.aid, blk.adist, &ad.dq
	return blk, g, x.gateRows(sc, q, c, blk, u, bounded), true
}

// gateRows is the gate pass: the block positions of c the row loop must
// examine, in block order, into sc.keep. Unbounded, that is every row.
// Bounded by u, it is the rows before the suffix cut at u whose anchor
// cut at u the squared spatial length cannot prove. The anchor cut
// needs λ·ds > u − b, with b = (1−λ)·semLower, so a row is certainly
// cut when ds exceeds r = (u − b)/λ inflated by anchorRelSlack·(|u| +
// |b|) + anchorAbsSlack: slacks far above the few roundings between
// these operands and the row loop's own, like the anchor bound's
// deflation. A row it keeps may still be cut; a row it drops always is.
// At λ = 0, r is ±Inf and the semantic floor alone decides.
func (x *Index) gateRows(sc *searchScratch, q *dataset.Object, c *hybrid, blk *clusterBlock, u float64, bounded bool) []int32 {
	n := len(c.elems)
	keep := growSlice(sc.keep, n)
	sc.keep = keep
	g := &sc.gate
	g.u0, g.cut = math.Inf(1), n
	if !bounded {
		for ei := range keep {
			keep[ei] = int32(ei)
		}
		return keep
	}
	g.u0 = u
	sp := x.space
	qx, qy := q.X, q.Y
	uHi := u + anchorRelSlack*math.Abs(u) + anchorAbsSlack
	invLam, perLam, dtq := g.invLam, g.perLam, g.dtq
	elems, xs, ys, aid, adist := c.elems[:n], blk.xs[:n], blk.ys[:n], g.aid[:n], g.adist[:n]
	dq := g.dq
	m := 0
	for ei := range elems {
		e := &elems[ei]
		if g.suffixBound(e) > u {
			g.cut = ei
			break
		}
		// b is semLower's operand, spelled out on the hoisted fields.
		b := invLam * anchorLower(dq[aid[ei]], float64(adist[ei]), dtq-e.dt)
		keep[m] = int32(ei)
		if !sp.SpatialBeyond(qx, qy, xs[ei], ys[ei], (uHi-b+anchorRelSlack*math.Abs(b))*perLam) {
			m++
		}
	}
	return keep[:m]
}

// chargeDropped charges rows [from, to) of c, which the gate pass
// dropped before the suffix cut of a counted read, as a loop over every
// row would: a tombstoned row nothing, a row rs rejects IntraPruned, and
// any other row a visit, its spatial distance and AnchorPruned.
func (x *Index) chargeDropped(c *hybrid, blk *clusterBlock, rs *restriction, from, to int, st *metric.Stats) {
	if x.dv.nTombs == 0 && !rs.rows {
		n := int64(to - from)
		st.VisitedObjects += n
		st.SpatialDistCalcs += n
		st.AnchorPruned += n
		return
	}
	x.chargeDroppedRows(c, blk, rs, from, to, st)
}

// chargeDroppedRows is chargeDropped row by row.
func (x *Index) chargeDroppedRows(c *hybrid, blk *clusterBlock, rs *restriction, from, to int, st *metric.Stats) {
	tombs := x.deltaTombs()
	for ei := from; ei < to; ei++ {
		e := &c.elems[ei]
		switch {
		case tombs.get(e.idx):
		case rs.rows && !rs.admits(x.ids[e.idx], blk.xs[ei], blk.ys[ei]):
			st.IntraPruned++
		default:
			st.VisitedObjects++
			st.SpatialDistCalcs++
			st.AnchorPruned++
		}
	}
}

// chargeTail charges rows [from, len) of c for a counted read whose
// loop ends at bound u with no kept row left before the suffix cut,
// which row to is known to be past (or to is the block's end): the rows
// before the cut as dropped ones, the cut row and every later live one
// to IntraPruned. The suffix bound is non-decreasing along the array, so
// the cut is at the first row past u — at to itself while u is still
// the gate pass's bound.
func (x *Index) chargeTail(c *hybrid, blk *clusterBlock, g *rowGate, rs *restriction, from, to int, u float64, st *metric.Stats) {
	lo, hi := from, to
	if u >= g.u0 {
		lo = to
	}
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); g.suffixBound(&c.elems[mid]) > u {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	x.chargeDropped(c, blk, rs, from, lo, st)
	st.IntraPruned += x.liveIn(c, lo, len(c.elems))
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
// every id an anchor — the sentinel, at distance zero, only under an
// empty set — and, for a sample of rows, the stored distance equal to
// the recomputed one bit for bit. The bound itself is probed with live
// objects as queries: deflated, it must never exceed the true distance.
func (x *Index) checkAnchors() error {
	aa := x.anchors
	if aa == nil {
		return fmt.Errorf("index has no anchor arena")
	}
	n, k := x.rows(), len(aa.set.pts)
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
			if k > 0 || aa.dist[i] != 0 {
				return fmt.Errorf("object %d: sentinel anchor row with distance %v under %d anchors", i, aa.dist[i], k)
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
