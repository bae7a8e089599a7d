package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/knn"
	"repro/internal/metric"
)

// Write overlay (delta) over an immutable base snapshot.
//
// Every write to an Index lands here (Insert and Delete in maintain.go);
// a flat index's first write creates its overlay. No base structure is
// ever written after derive built it.
//
// A published snapshot is never written: a writer takes a clone whose
// cost does not grow with n, with the vocabulary, or with the number of
// buffered ops beyond one bit each. The base structures (columns,
// arenas, clusters, radii, the ID table) are shared
// byte-for-byte and NEVER written, and every mutation lands in a delta
// whose own pieces are shared between clones until a write touches
// them.
//
//   - An insert appends the object to the delta's append log, with its
//     vector and projection copied into the log's arenas, and joins a
//     mini "group" keyed by its side pair (nearestSides).
//   - A delete of a base object sets a tombstone bit at its storage
//     position; a delete of an overlay object marks its log slot dead.
//   - An update is a delete followed by an insert (both dispatch here).
//
// Search runs base + delta: the base scan skips tombstoned positions,
// and the overlay's live inserts are chained onto the same k-NN heap
// (scanDelta) before the final AppendSorted. Exactness: knn.Heap's
// final contents are a pure function of the offered candidate set (ties
// break by ascending ID), the tombstone skip removes exactly the
// deleted candidates, and scanDelta offers every live overlay object
// not provably outside the k-th bound — so exact results are
// bit-identical to a full rebuild over the same live set.
//
// Compact folds the overlay into a fresh flat base that ends in derive,
// as Build and Load do. Folding at the compaction threshold — the
// facade's bare index does it on its own writes, a shard in the
// background — bounds the overlay (and hence the extra per-query scan).
//
// What a clone shares, and why a write cannot reach its siblings:
//
//   - The append log is immutable once written, so clones share its
//     backing arrays. tail counts the slots of those arrays that some
//     delta of the lineage has claimed; every delta holds len(objs) ≤
//     tail. A writer appends slot n = len(objs) in place only after
//     moving tail from n to n+1 with a compare-and-swap: success proves
//     no delta sharing the arrays ever claimed slot n, and every reader
//     sharing them holds a length ≤ tail = n, so the write lands where
//     nobody looks. Writers of one lineage are serialized, so a slot is
//     written once before the snapshot holding it is published (an
//     atomic-pointer store, which orders the write before any reader's
//     loads). A clone that loses the claim — a sibling of the one that
//     won, or the successor of an abandoned all-or-nothing batch whose
//     clone had already appended — moves to private arrays (regrow), the
//     one O(|delta|) copy left; so does a writer whose arrays are full.
//   - dead is copied per clone (one bit per log slot); tombs, the ID
//     table, the group index and the group chunks are copied on their
//     first write (overlay_cow.go), group member lists when appended to.
//   - A delta that has been cloned owns nothing either: clone marks the
//     source shared, and beginWrite makes a shared delta drop its
//     ownerships before it writes again.
type overlayDelta struct {
	dim, m int // arena strides, copied from the base index

	// Append log of overlay inserts. objs[i].Vec views vecs; projs holds
	// the PCA projections at stride m. The three share one capacity in
	// slots and one tail.
	objs  []dataset.Object
	vecs  []float32
	projs []float32
	tail  *atomic.Int64 // nil while the log has no backing arrays

	// dead marks log slots superseded by a later delete/update; idToPos
	// maps live overlay IDs to log slots.
	dead      bitset
	liveCount int
	idToPos   idTable

	// Tombstones over BASE storage positions.
	tombs     bitset
	ownsTombs bool
	nTombs    int

	// ops counts mutations absorbed since the base was built/compacted —
	// the compaction trigger.
	ops int

	// Overlay inserts grouped by their side pair, with the group's
	// covering radii. scanDelta prunes whole groups with the same
	// Lemma 4.4 bound the base clusters use, and Compact makes the pair
	// each member's cell. groupIdx maps the pair's grid cell to the
	// group's index.
	groups   groupVec
	groupIdx idTable

	// shared is set once a clone of this delta exists.
	shared atomic.Bool
}

// overlayGroup is a mini cluster of overlay inserts sharing one side
// pair.
type overlayGroup struct {
	s, t         int
	maxDs, maxDt float64
	members      []uint32 // log positions, ascending
}

func newOverlayDelta(x *Index) *overlayDelta {
	return &overlayDelta{
		dim:       x.dim,
		m:         x.m,
		tombs:     newBitset(x.rows()),
		ownsTombs: true,
	}
}

// clone returns a write-isolated copy at a cost independent of the
// overlay's size but for one bit per log slot: everything else is shared
// until written (see the type comment).
func (d *overlayDelta) clone() *overlayDelta {
	d.shared.Store(true)
	nd := &overlayDelta{
		dim: d.dim, m: d.m,
		objs: d.objs, vecs: d.vecs, projs: d.projs, tail: d.tail,
		dead: d.dead.clone(), liveCount: d.liveCount, idToPos: d.idToPos,
		tombs: d.tombs, nTombs: d.nTombs,
		ops:    d.ops,
		groups: d.groups.clone(), groupIdx: d.groupIdx,
	}
	nd.idToPos.owned, nd.groupIdx.owned = 0, 0
	return nd
}

// beginWrite precedes every mutation: a delta that has been cloned since
// its last write shares with the clone whatever it owned.
func (d *overlayDelta) beginWrite() {
	if d.shared.Load() {
		d.idToPos.owned, d.groupIdx.owned, d.groups.owned, d.ownsTombs = 0, 0, nil, false
		d.shared.Store(false)
	}
}

// vecRow and projRow return the delta-arena rows of log position pos.
func (d *overlayDelta) vecRow(pos uint32) []float32 {
	n := d.dim
	return d.vecs[int(pos)*n : (int(pos)+1)*n : (int(pos)+1)*n]
}

func (d *overlayDelta) projRow(pos uint32) []float32 {
	m := d.m
	return d.projs[int(pos)*m : (int(pos)+1)*m : (int(pos)+1)*m]
}

// appendLog claims the next log slot and stores o in it, the vector
// copied into the arena row the stored object then views; the
// projection row is left for the caller to fill.
func (d *overlayDelta) appendLog(o dataset.Object) uint32 {
	n := len(d.objs)
	if n == cap(d.objs) || !d.tail.CompareAndSwap(int64(n), int64(n+1)) {
		d.regrow()
	}
	d.objs = d.objs[:n+1]
	d.vecs = d.vecs[:(n+1)*d.dim]
	d.projs = d.projs[:(n+1)*d.m]
	pos := uint32(n)
	copy(d.vecRow(pos), o.Vec)
	o.Vec = d.vecRow(pos)
	d.objs[n] = o
	return pos
}

// regrow moves the log to private arrays of (at least) twice the length
// with a tail of their own, the next slot already claimed.
func (d *overlayDelta) regrow() {
	n := len(d.objs)
	slots := max(2*n, 16)
	objs := make([]dataset.Object, n, slots)
	copy(objs, d.objs)
	d.objs = objs
	d.vecs = append(make([]float32, 0, slots*d.dim), d.vecs...)
	d.projs = append(make([]float32, 0, slots*d.m), d.projs...)
	for i := range d.objs {
		d.objs[i].Vec = d.vecRow(uint32(i))
	}
	d.tail = new(atomic.Int64)
	d.tail.Store(int64(n + 1))
}

// CloneWithDelta returns a write-isolated copy whose mutations land in
// the overlay, at a cost that depends neither on n nor on how much the
// overlay already holds. The base structures are shared with x and
// written by neither, so x may go on writing, one goroutine at a time
// per index: a flat x's first write creates an overlay of its own, and
// an x that carries one finds it shared and copies what it touches,
// like any sibling.
func (x *Index) CloneWithDelta() *Index {
	nx := new(Index)
	*nx = *x
	if x.delta != nil {
		nx.delta = x.delta.clone()
	} else {
		nx.delta = newOverlayDelta(x)
	}
	return nx
}

// DeltaOps returns the number of write operations the overlay has
// absorbed since the base was built or last compacted (0 on flat
// indexes) — the quantity compaction thresholds compare against.
func (x *Index) DeltaOps() int {
	if x.delta == nil {
		return 0
	}
	return x.delta.ops
}

// DeltaLive returns the number of live overlay inserts (0 on flat
// indexes).
func (x *Index) DeltaLive() int {
	if x.delta == nil {
		return 0
	}
	return x.delta.liveCount
}

// deltaTombs returns the overlay's tombstone bitmap when it has any set
// bits, else nil — scan loops hoist this so the per-object check
// vanishes on tombstone-free snapshots.
func (x *Index) deltaTombs() bitset {
	if x.delta != nil && x.delta.nTombs > 0 {
		return x.delta.tombs
	}
	return nil
}

// scanDelta chains the overlay's live inserts onto an exact k-NN heap.
// Groups prune with the Lemma 4.4 bound against their covering radii:
// for a member o of group (s,t), the triangle inequality gives
// ds(q,o) ≥ dsq(s) − maxDs and dt(q,o) ≥ dtq(t) − maxDt, so the group
// bound never exceeds a member's true distance. The skip fires only on
// lb > u (strict): with the heap full at u, every member's distance is
// ≥ lb > u and provably cannot displace an entry even on exact ties,
// keeping base+delta results bit-identical to a compacted rebuild.
// Surviving members pass the read's restriction and pay the same exact
// kernel as in scanCluster, with the bound capped by the read's radius
// (+Inf for none). On a stripe of sh, h is nil and sh's one heap takes
// the pushes and sets every cut (see kth).
// Centroid distances come from sc's memo tables, which every caller set
// up for q on x just before (orderByBound; SearchAblated's eager fills):
// the spatial ones are all filled, a semantic one is computed on first
// use, so a query pays at most Kt semantic centroid distances however
// many groups the overlay holds.
func (x *Index) scanDelta(sc *searchScratch, q *dataset.Object, lambda float64, h *knn.Heap, sh *stripeJob, st *metric.Stats) {
	d := x.delta
	if d == nil || d.liveCount == 0 {
		return
	}
	var phase time.Time
	if sc.obs != nil {
		phase = time.Now()
	}
	rs := &sc.rs
	for gi := 0; gi < d.groups.n; gi++ {
		g := d.groups.at(gi)
		if u, full := kth(h, rs.radius, sh); full {
			if lowerBound(lambda, sc.dsq[g.s], g.maxDs, x.centroidDist(sc, q, g.t), g.maxDt) > u {
				if st != nil {
					st.ClustersPruned++
					for _, pos := range g.members {
						if !d.dead.get(pos) {
							st.InterPruned++
						}
					}
				}
				continue
			}
		}
		for _, pos := range g.members {
			if d.dead.get(pos) {
				continue
			}
			o := &d.objs[pos]
			if rs.rows && !rs.admits(o.ID, o.X, o.Y) {
				if st != nil {
					st.IntraPruned++
				}
				continue
			}
			if st != nil {
				st.VisitedObjects++
			}
			ds := x.space.Spatial(st, q.X, q.Y, o.X, o.Y)
			var dt float64
			if u, full := kth(h, rs.radius, sh); full && lambda < 1 {
				var ok bool
				dt, ok = x.space.SemanticBound(st, q.Vec, o.Vec, abandonLimit(u, lambda, ds))
				if !ok {
					if sc.obs != nil {
						sc.obs.EarlyAbandons++
					}
					continue
				}
			} else {
				dt = x.space.Semantic(st, q.Vec, o.Vec)
			}
			if dd := metric.Combine(lambda, ds, dt); !(dd > rs.radius) {
				push(sc, h, sh, knn.Result{ID: o.ID, Dist: dd})
			}
		}
	}
	if sc.obs != nil {
		sc.obs.DeltaNanos += time.Since(phase).Nanoseconds()
	}
}

// Compact folds the write overlay into a fresh flat index and returns
// it; x is never mutated (callers publish the result in its place). The
// fold ends where Build and Load end, in derive: it gathers the live
// rows (gatherLive), each keeping its cell and its stored projection,
// sets every side radius by Build's rule, the max over the side's live
// rows, and derives the rest over the kept model — centroids, PCA,
// anchor set and space. The result is cluster-major with every row
// anchored, as a built or loaded index is; its first write creates an
// overlay of its own, so it may be written before it is published
// without reaching x. The drift state carries over: it counts from the last
// build. Exact answers are bit-identical across the fold: both sides
// select the top-k by (distance, ID) from the same live set under
// admissible-only pruning.
func (x *Index) Compact() (*Index, error) {
	if x.delta == nil {
		return x, nil
	}
	nx := &Index{
		cfg: x.cfg, space: x.space, pcaModel: x.pcaModel, dim: x.dim, m: x.m,
		sCentX: x.sCentX, sCentY: x.sCentY, tCent: x.tCent, tCentProj: x.tCentProj, tValid: x.tValid,
		scratchPool: x.scratchPool,
	}
	vecs := nx.gatherLive(x)
	var err error
	if nx.idIdx, err = newIDTable(nx.ids, nx.cfg.Workers); err != nil {
		return nil, fmt.Errorf("core: compact: %w", err)
	}
	ds, dt, dp := nx.sideDists(vecs)
	nx.setRadii(ds, dt, dp)
	nx.derive(ds, dt, vecs, x.anchors.set)
	nx.UpdatesSinceBuild, nx.insertsSinceBuild, nx.radiusDrifts = x.UpdatesSinceBuild, x.insertsSinceBuild, x.radiusDrifts
	nx.builtSRad, nx.builtTRadProj = x.builtSRad, x.builtTRadProj
	return nx, nil
}

// gatherLive makes x's rows the live rows of src: src's base rows minus
// tombstones, in storage order, then its overlay's live inserts in
// append order, an insert's cell being its group's side pair. It fills
// the columns, the coordinate and projection arenas, the cells and the
// anchor rows over src's set (a
// base row's own, the sentinel for an insert, which derive then
// assigns), and returns views of the rows' vectors — src's arena rows
// and log slots — for derive to write the vector arena from.
func (x *Index) gatherLive(src *Index) [][]float32 {
	d, tombs, n := src.delta, src.deltaTombs(), src.live
	x.ids, x.texts, x.topics = make([]uint32, 0, n), make([]string, 0, n), make([]int, 0, n)
	x.xArena, x.yArena = make([]float64, 0, n), make([]float64, 0, n)
	x.cells, x.projArena = make([]uint32, 0, n), make([]float32, 0, n*x.m)
	aa := &anchorArena{set: src.anchors.set, id: make([]uint8, 0, n), dist: make([]float32, 0, n)}
	vecs := make([][]float32, 0, n)
	keep := func(o *dataset.Object, cell uint32, proj []float32, aid uint8, adist float32) {
		x.ids, x.texts, x.topics = append(x.ids, o.ID), append(x.texts, o.Text), append(x.topics, o.Topic)
		x.xArena, x.yArena = append(x.xArena, o.X), append(x.yArena, o.Y)
		x.cells, x.projArena = append(x.cells, cell), append(x.projArena, proj...)
		aa.id, aa.dist = append(aa.id, aid), append(aa.dist, adist)
		vecs = append(vecs, o.Vec)
	}
	for i := range src.ids {
		if idx := uint32(i); tombs == nil || !tombs.get(idx) {
			o := src.row(idx)
			keep(&o, src.cells[i], src.projAt(idx), src.anchors.id[i], src.anchors.dist[i])
		}
	}
	cells := make([]uint32, len(d.objs))
	for gi := 0; gi < d.groups.n; gi++ {
		g := d.groups.at(gi)
		for _, pos := range g.members {
			cells[pos] = uint32(src.cell(g.s, g.t))
		}
	}
	for pos := range d.objs {
		if p := uint32(pos); !d.dead.get(p) {
			keep(&d.objs[pos], cells[pos], d.projRow(p), anchorSentinel, 0)
		}
	}
	x.anchors = aa
	return vecs
}
