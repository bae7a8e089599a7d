package core

import (
	"sync"
	"time"

	"repro/internal/knn"
	"repro/internal/obs"
)

// searchScratch holds every per-query buffer the query algorithms need.
// The buffers grow to the high-water mark of the index geometry (Ks, Kt,
// k, m) and are then reused: in steady state a query performs zero heap
// allocations. Scratches live in the Index's sync.Pool, so concurrent
// queries each draw their own.
type searchScratch struct {
	// dsq[s] is the normalized spatial distance from q to spatial
	// centroid s (always filled eagerly: Ks cheap 2-D distances).
	dsq []float64
	// dtq[t] is the normalized original-space semantic distance from q
	// to semantic centroid t, filled lazily per visited cluster and
	// memoized; dtqKnown[t] marks the filled entries.
	dtq      []float64
	dtqKnown []bool
	// dtqProj[t] is a projected-space value per semantic centroid: the
	// normalized d't for CSSIA, or the weak lower bound on dtq that CSSI
	// orders clusters by (see fillProjLowerBounds).
	dtqProj []float64
	// qProj is the PCA projection of the query vector (length m).
	qProj []float32
	// aTerm[s] is the spatial share A[s] of the Eq. 4 bound and front
	// the best-first cluster frontier that merges it with the semantic
	// shares (Alg. 2 line 4 / Alg. 3 line 5 made lazy; see sideFrontier).
	aTerm []float64
	front sideFrontier
	// heap collects the k best results; cands is CSSIA's candidate
	// max-heap.
	heap  knn.Heap
	cands candHeap
	// anchorDq[a] is the normalized distance from q to anchor a (see
	// anchor.go), filled by the first gated cluster scan of a query and
	// marked valid by anchorQ. Entries from the anchor count up are never
	// written and stay 0 — anchorDq[anchorSentinel] in particular.
	anchorDq [anchorSentinel + 1]float64
	anchorQ  bool
	// blk and gate are the scan block and row gate of the cluster being
	// scanned, refilled in place per cluster (see enterCluster) so that
	// a visit passes no 96-byte and 88-byte structs around. Their
	// slices window the index's arenas: putScratch clears them.
	blk  clusterBlock
	gate rowGate
	// Learned-routing state of the routed approximate mode: routeScore
	// is its per-cluster probability buffer, routeKey its packed
	// (probability, position) sort keys.
	routeScore []float64
	routeKey   []uint64
	// Time-budget state (see deadline.go). budgeted arms the per-pop
	// budget polling for the current query — false (the normal case)
	// keeps every check a single untaken branch; deadline and cancel
	// are the query's absolute cut-off instant and cancellation signal;
	// pops counts cluster pops so the wall clock is read only every
	// deadlineCheckEvery pops; partial latches once the budget fires,
	// marking the returned heap a truncated (but admissible) prefix.
	budgeted bool
	deadline time.Time
	cancel   <-chan struct{}
	pops     int
	partial  bool
	// obs, when non-nil, receives the search-internals trace of the
	// current query (explain path only). nil — the normal case — keeps
	// every instrumentation site an untaken branch: zero extra work,
	// zero allocations.
	obs *obs.SearchStats
}

func newScratchPool() *sync.Pool {
	return &sync.Pool{New: func() interface{} { return new(searchScratch) }}
}

// getScratch draws a scratch from the pool and sizes its centroid-level
// buffers for the index's current geometry.
func (x *Index) getScratch() *searchScratch {
	sc := x.scratchPool.Get().(*searchScratch)
	sc.dsq = growSlice(sc.dsq, len(x.sCentX))
	sc.dtq = growSlice(sc.dtq, len(x.tCent))
	sc.dtqKnown = growSlice(sc.dtqKnown, len(x.tCent))
	sc.dtqProj = growSlice(sc.dtqProj, len(x.tCent))
	sc.qProj = growSlice(sc.qProj, x.m)
	sc.aTerm = growSlice(sc.aTerm, len(x.sCentX))
	sc.anchorQ = false
	sc.budgeted = false
	sc.deadline = time.Time{}
	sc.cancel = nil
	sc.pops = 0
	sc.partial = false
	sc.obs = nil
	return sc
}

// putScratch returns a scratch to the pool for reuse, dropping first
// what points into the index: a pooled scratch must not pin the arena
// backing arrays of a snapshot that has since been superseded.
func (x *Index) putScratch(sc *searchScratch) {
	sc.front.release()
	sc.blk, sc.gate = clusterBlock{}, rowGate{}
	x.scratchPool.Put(sc)
}

// growSlice returns s resized to length n, reallocating only when the
// capacity is insufficient. Contents are unspecified.
func growSlice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
