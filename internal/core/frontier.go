package core

import (
	"repro/internal/dataset"
	"repro/internal/metric"
)

// sideFrontier yields the hybrid clusters of one query in ascending
// true lower bound L(q,C) — the best-first order of Alg. 2 line 4 /
// Alg. 3 line 5 — without ever materialising the Ks×Kt bounds.
//
// Eq. 4 is separable: every case is
//
//	L(q,C) = A[s] + B[t],  A[s] = sideTerm(λ, ds(q,Cs), Rs),
//	                       B[t] = sideTerm(1−λ, dt(q,Ct), Rt),
//
// where an enclosed side contributes exactly 0 (and 0 + x == x bit for
// bit, so the sum equals lowerBound in all four cases). Ordering Ks·Kt
// sums of a Ks-vector and a Kt-vector is a Ks-way merge over one shared
// ascending list of the B's:
//
//   - the semantic stream. sides is a min-heap of the Kt semantic sides
//     keyed by B. A side may enter with a weak under-estimate of B (the
//     projected-space bound of fillProjLowerBounds); only when it reaches
//     the head is its true dtq computed (memoised by centroidDist) and
//     the side re-sifted under its true B, at most once per side. A
//     refined head is emitted: appended to tOrder/bOrder. Every side
//     still in the heap has true B ≥ its key ≥ the emitted one, so
//     tOrder is ascending in true B.
//
//   - the cursors. Each spatial side s walks tOrder with one cursor,
//     skipping the pairs no object populates through the dense
//     grid[s·Kt+t]. A cursor resting on a populated emitted pair is live
//     and keyed by its cluster's true bound A[s] + bOrder[pos]; a cursor
//     that ran past the emitted prefix is keyed A[s] + (head key of
//     sides), a lower bound on everything left in its row. cur is a
//     min-heap of the ≤ Ks cursors, so a live head is the global minimum
//     true bound; an unsettled head first raises its key, and only if it
//     is still the minimum does it make the stream refine or emit one
//     more side.
//
// Ordering costs O(Ks + Kt) to start plus O(log Ks) per cluster
// consumed, and the true dtq of a side is computed only if some row's
// merge actually reaches it. Everything lives in the pooled
// searchScratch; steady state allocates nothing.
type sideFrontier struct {
	x  *Index
	sc *searchScratch
	q  *dataset.Object

	bw  float64   // semantic weight of B: 1−λ (1 for the box query)
	rad []float64 // semantic radii B is measured against

	sides  frontHeap // key = B, side = t, exact = refined
	tOrder []int32
	bOrder []float64
	cur    frontHeap // side = s, exact = live

	// popped/poppedElems count what pop handed out, so the cut charges
	// the remainder without walking it.
	popped      int
	poppedElems int64
}

// frontEntry is an entry of either heap: a semantic side of the stream
// or a spatial side's cursor.
type frontEntry struct {
	key  float64
	side int32
	// pos (cursors only) is the next position of tOrder to examine — the
	// cluster's own position while the cursor is live.
	pos int32
	// exact marks key as a true bound: a refined side, a live cursor.
	exact bool
}

// sideTerm is one side's share of Eq. 4: the weighted distance from q
// to the ball of radius r around a centroid at distance d, zero inside.
// The explicit conversion rounds the product on its own so that
// A[s] + B[t] and lowerBound agree bitwise even where the compiler may
// fuse multiply-adds.
func sideTerm(w, d, r float64) float64 {
	if d >= r {
		return float64(w * (d - r))
	}
	return 0
}

// fillSpatialTerms fills sc.aTerm with A[s] from sc.dsq.
func (x *Index) fillSpatialTerms(sc *searchScratch, lambda float64) {
	for s, d := range sc.dsq {
		sc.aTerm[s] = sideTerm(lambda, d, x.sRad[s])
	}
}

// centroidDist returns the normalized original-space distance from q to
// semantic centroid t, computing it on first use (memoised in sc.dtq).
func (x *Index) centroidDist(sc *searchScratch, q *dataset.Object, t int) float64 {
	if !sc.dtqKnown[t] {
		sc.dtq[t] = x.space.SemanticVec(q.Vec, x.tCent[t])
		sc.dtqKnown[t] = true
	}
	return sc.dtq[t]
}

// startFrontier arms the query's frontier. sc.aTerm holds A[s]; a
// negative entry gives that spatial side no cursor, so none of its
// clusters is ever yielded. B[t] starts as sideTerm(bw, dtEst[t],
// rad[t]): final when refined is set, otherwise a weak bound that is
// replaced by sideTerm(bw, true dtq, rad[t]) before the side is emitted
// (rad must then be x.tRad).
func (x *Index) startFrontier(sc *searchScratch, q *dataset.Object, bw float64, dtEst, rad []float64, refined bool) *sideFrontier {
	f := &sc.front
	f.x, f.sc, f.q, f.bw, f.rad = x, sc, q, bw, rad
	f.popped, f.poppedElems = 0, 0
	f.tOrder, f.bOrder = f.tOrder[:0], f.bOrder[:0]

	f.sides = f.sides[:0]
	for t, d := range dtEst {
		f.sides = append(f.sides, frontEntry{key: sideTerm(bw, d, rad[t]), side: int32(t), exact: refined})
	}
	f.sides.heapify()
	f.cur = f.cur[:0]
	if len(f.sides) == 0 {
		return f
	}
	b0 := f.sides[0].key
	for s, a := range sc.aTerm {
		if a >= 0 {
			f.cur = append(f.cur, frontEntry{key: a + b0, side: int32(s)})
		}
	}
	f.cur.heapify()
	return f
}

// release drops the frontier's references into the index and the query
// before the scratch returns to the pool.
func (f *sideFrontier) release() {
	f.x, f.sc, f.q, f.rad = nil, nil, nil, nil
}

// peek returns the unconsumed cluster with the smallest true lower
// bound and that bound, or ok=false once every populated pair of every
// cursor's row has been consumed.
func (f *sideFrontier) peek() (c *hybrid, lb float64, ok bool) {
	kt := len(f.rad)
	for len(f.cur) > 0 {
		h := &f.cur[0]
		row := f.x.grid[int(h.side)*kt : (int(h.side)+1)*kt]
		if h.exact {
			return row[f.tOrder[h.pos]], h.key, true
		}
		for int(h.pos) < len(f.tOrder) && row[f.tOrder[h.pos]] == nil {
			h.pos++
		}
		a := f.sc.aTerm[h.side]
		switch {
		case int(h.pos) < len(f.tOrder):
			h.key, h.exact = a+f.bOrder[h.pos], true
		case len(f.sides) == 0:
			// Row exhausted: retire the cursor.
			f.cur.dropHead()
			continue
		case a+f.sides[0].key > h.key:
			// The stream's head has risen since this key was set.
			h.key = a + f.sides[0].key
		default:
			// Still the minimum: the stream must move. The key stays a
			// valid bound, so the heap needs no repair.
			f.stepStream()
			continue
		}
		f.cur.siftDown(0)
	}
	return nil, 0, false
}

// pop consumes the cluster peek returned.
func (f *sideFrontier) pop(c *hybrid) {
	h := &f.cur[0]
	// The key stays: later pairs of the row only have larger bounds.
	h.pos++
	h.exact = false
	f.popped++
	f.poppedElems += int64(len(c.elems))
}

// stepStream advances the semantic stream by one step: an unrefined
// head is refined to its true B and re-sifted, a refined head is
// emitted.
func (f *sideFrontier) stepStream() {
	h := &f.sides[0]
	if !h.exact {
		h.key = sideTerm(f.bw, f.x.centroidDist(f.sc, f.q, int(h.side)), f.rad[h.side])
		h.exact = true
		f.sides.siftDown(0)
		return
	}
	f.tOrder = append(f.tOrder, h.side)
	f.bOrder = append(f.bOrder, h.key)
	f.sides.dropHead()
}

// chargePruned charges every cluster pop never handed out to the
// inter-cluster pruning counters (Lemma 4.4): once the head's true
// bound reaches the k-NN bound U, no remaining cluster — in the heaps
// or not yet reached by any cursor — can contain a result.
func (f *sideFrontier) chargePruned(st *metric.Stats) {
	if st == nil {
		return
	}
	st.ClustersPruned += int64(len(f.x.clusters) - f.popped)
	st.InterPruned += f.x.baseElems() - f.poppedElems
}

// frontHeap is a binary min-heap by key; hand-written (no
// container/heap) to avoid interface boxing, matching candHeap.
type frontHeap []frontEntry

func (h frontHeap) heapify() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}

func (h frontHeap) siftDown(i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		small := l
		if r := l + 1; r < n && h[r].key < h[l].key {
			small = r
		}
		if h[i].key <= h[small].key {
			return
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
}

// dropHead removes the minimum.
func (h *frontHeap) dropHead() {
	n := len(*h) - 1
	(*h)[0] = (*h)[n]
	*h = (*h)[:n]
	h.siftDown(0)
}
