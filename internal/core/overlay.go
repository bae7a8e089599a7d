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
// CloneForWrite pays O(n) per clone — the deleted bitmap is copied
// eagerly even when the write batch touches one object. The overlay
// replaces that with a clone whose cost does not grow with n, with the
// vocabulary, or with the number of buffered ops beyond one bit each:
// the base structures (columns, arenas, clusters, radii, deleted, the ID
// table) are shared byte-for-byte and NEVER written, and
// every mutation lands in a delta whose own pieces are shared between
// clones until a write touches them.
//
//   - An insert appends the object to the delta's append log, with its
//     vector and projection copied into the log's arenas, and joins a
//     mini "group" keyed by its nearest (spatial, semantic) base
//     centroid pair.
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
// Compact folds the overlay into a fresh flat base by replaying the
// tombstones and then the live inserts through the eager COW path,
// bounding delta size (and hence the extra per-query scan) by the
// compaction threshold.
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
//     nobody looks (the append-only half of CloneForWrite's argument).
//     A clone that loses the claim — a sibling of the one that won, or
//     the successor of an abandoned all-or-nothing batch whose clone had
//     already appended — moves to private arrays (regrow), the one
//     O(|delta|) copy left; so does a writer whose arrays are full.
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

	// Tombstones over BASE storage positions (parallel to the base
	// deleted bitmap, which stays shared and untouched).
	tombs     bitset
	ownsTombs bool
	nTombs    int

	// ops counts mutations absorbed since the base was built/compacted —
	// the compaction trigger.
	ops int

	// Overlay inserts grouped by their nearest (spatial, semantic) base
	// centroid pair, with the group's covering radii. scanDelta prunes
	// whole groups with the same Lemma 4.4 bound the base clusters use.
	// groupIdx maps groupKey(s,t) to the group's index.
	groups   groupVec
	groupIdx idTable

	// shared is set once a clone of this delta exists.
	shared atomic.Bool
}

// overlayGroup is a mini cluster of overlay inserts sharing the nearest
// base centroid pair. t == -1 marks inserts with no valid semantic
// centroid (possible only when every semantic cluster was invalid at
// build time); such a group gets no semantic pruning term.
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

// groupKey packs a (spatial, semantic) centroid pair, t = -1 included,
// into the group index's key.
func (x *Index) groupKey(s, t int) uint32 { return uint32(s*(len(x.tCent)+1) + t + 1) }

// CloneWithDelta returns a write-isolated copy whose mutations land in
// the overlay, at a cost that depends neither on n — CloneForWrite's
// bitmap copy — nor on how much the overlay already holds.
// The base structures are shared with x and never written, so a flat x
// must be treated as immutable for as long as either copy is in use (the
// same contract CloneForWrite's shared arenas already impose); an x that
// carries an overlay itself may go on writing to it, one goroutine at a
// time per index — its next write finds the delta shared and copies what
// it touches, like any sibling.
func (x *Index) CloneWithDelta() *Index {
	nx := new(Index)
	*nx = *x
	// Overlay mutations never touch the base, so the COW machinery is
	// inert on this clone; drop any state inherited from x's own cloning.
	nx.cow = nil
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

// deltaInsert is Insert's overlay path: the object joins the append log
// and its (spatial, semantic) group; no base structure is written.
func (x *Index) deltaInsert(o dataset.Object) error {
	d := x.delta
	d.beginWrite()
	if _, ok := d.idToPos.get(o.ID); ok {
		return fmt.Errorf("core: object ID %d already present", o.ID)
	}
	if prev, ok := x.idIdx.get(o.ID); ok && !d.tombs.get(prev) {
		return fmt.Errorf("core: object ID %d already present", o.ID)
	}
	if len(o.Vec) != x.pcaModel.N() {
		return fmt.Errorf("core: vector dim %d, index expects %d", len(o.Vec), x.pcaModel.N())
	}
	pos := d.appendLog(o)
	x.pcaModel.TransformInto(d.projRow(pos), o.Vec)
	d.dead = d.dead.grown(len(d.objs))
	d.idToPos.put(o.ID, pos)

	// Nearest base centroids — the same assignment rule as the eager
	// Insert, so compaction replay lands the object in the same cluster.
	s := 0
	bestS := x.space.SpatialXY(o.X, o.Y, x.sCentX[0], x.sCentY[0])
	for c := 1; c < len(x.sCentX); c++ {
		if ds := x.space.SpatialXY(o.X, o.Y, x.sCentX[c], x.sCentY[c]); ds < bestS {
			s, bestS = c, ds
		}
	}
	proj := d.projRow(pos)
	t, bestT := -1, 0.0
	for c := 0; c < len(x.tCentProj); c++ {
		if !x.tValid[c] {
			continue
		}
		if dp := x.space.SemanticProjVec(proj, x.tCentProj[c]); t < 0 || dp < bestT {
			t, bestT = c, dp
		}
	}

	// Group membership and covering radii (original-space semantic
	// distance, matching the bound scanDelta applies).
	key := x.groupKey(s, t)
	gi, ok := d.groupIdx.get(key)
	if !ok {
		gi = uint32(d.groups.push(overlayGroup{s: s, t: t}))
		d.groupIdx.put(key, gi)
	}
	g := d.groups.mut(int(gi))
	if bestS > g.maxDs {
		g.maxDs = bestS
	}
	if t >= 0 {
		if dt := x.space.SemanticVec(o.Vec, x.tCent[t]); dt > g.maxDt {
			g.maxDt = dt
		}
	}
	g.members = append(g.members, pos)

	// Scalar per-clone counters (the struct copy made them private).
	x.insertsSinceBuild++
	if bestS > x.builtSRad[s] || (t >= 0 && bestT > x.builtTRadProj[t]) {
		x.radiusDrifts++
	}
	d.liveCount++
	d.ops++
	x.live++
	x.UpdatesSinceBuild++
	return nil
}

// deltaDelete is Delete's overlay path: overlay inserts die in the log,
// base objects get a tombstone bit; the base deleted bitmap, ID table
// and cluster structures stay untouched.
func (x *Index) deltaDelete(id uint32) error {
	d := x.delta
	d.beginWrite()
	if pos, ok := d.idToPos.del(id); ok {
		d.dead.set(pos)
		d.liveCount--
	} else {
		idx, ok := x.idIdx.get(id)
		if !ok || d.tombs.get(idx) {
			return fmt.Errorf("core: object ID %d not present", id)
		}
		if !d.ownsTombs {
			d.tombs, d.ownsTombs = d.tombs.clone(), true
		}
		d.tombs.set(idx)
		d.nTombs++
	}
	d.ops++
	x.live--
	x.UpdatesSinceBuild++
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
// Centroid distances are computed directly (not via the scratch memo
// tables) because not every caller maintains the memo invariant; group
// counts are bounded by the compaction threshold, and in practice far
// smaller.
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
			dsqG := x.space.SpatialXY(q.X, q.Y, x.sCentX[g.s], x.sCentY[g.s])
			lb := lambda * (dsqG - g.maxDs)
			if g.t >= 0 {
				dtqG := x.space.SemanticVec(q.Vec, x.tCent[g.t])
				lb = lowerBound(lambda, dsqG, g.maxDs, dtqG, g.maxDt)
			} else if lb < 0 {
				lb = 0
			}
			if lb > u {
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

// Compact folds the write overlay into a fresh flat index: an eager COW
// clone of the base replays the overlay's tombstones (ascending storage
// order) and then its live inserts (append order) through the in-place
// maintenance path. Exact search answers are bit-identical across the
// fold: both sides select the top-k by (distance, ID) from the same
// live object set under admissible-only pruning, so the bookkeeping
// differences (radius shrink order, cluster membership order) cannot
// change results. x itself is never mutated — callers publish the
// returned flat index in its place.
func (x *Index) Compact() (*Index, error) {
	d := x.delta
	if d == nil {
		return x, nil
	}
	if d.ops == 0 {
		nx := new(Index)
		*nx = *x
		nx.delta = nil
		nx.cow = nil
		return nx, nil
	}
	nx := x.CloneForWrite()
	// x.live and the drift counters already include the overlay's net
	// effect; the replay below re-applies every surviving op through the
	// eager path, so rewind them to their base-only values first.
	nx.live = x.live - d.liveCount + d.nTombs
	nx.UpdatesSinceBuild = x.UpdatesSinceBuild - d.ops
	nx.insertsSinceBuild = x.insertsSinceBuild - len(d.objs)
	if d.nTombs > 0 {
		for i, id := range x.ids {
			if !d.tombs.get(uint32(i)) {
				continue
			}
			if err := nx.Delete(id); err != nil {
				return nil, fmt.Errorf("core: compact: %w", err)
			}
		}
	}
	for pos := range d.objs {
		if d.dead.get(uint32(pos)) {
			continue
		}
		if err := nx.Insert(d.objs[pos]); err != nil {
			return nil, fmt.Errorf("core: compact: %w", err)
		}
	}
	return nx, nil
}
