package core

import (
	"fmt"
	"math"

	"repro/internal/metric"
	"repro/internal/vec"
)

// CheckInvariants verifies the structural properties the correctness
// proofs rest on. It is exercised by the test suite after builds and
// after maintenance streams; production code never calls it.
//
// Checked invariants:
//   - every live object belongs to exactly one hybrid cluster, and its
//     stored member distances match recomputation;
//   - every cluster radius covers all its members, in all three
//     representations (spatial, semantic original, semantic projected);
//   - every element array is conservative (bound dominates the member's
//     true distances) and monotonically non-increasing in both threshold
//     coordinates;
//   - element arrays contain each member exactly once and no deleted
//     objects;
//   - under the Euclidean semantic metric, each projected semantic
//     centroid still equals the projection of its original-space
//     centroid, and the deflated projected weak bound of the lazy
//     cluster ordering never exceeds the true centroid distance
//     (probed with live objects as queries) — the two facts the
//     exactness of Search's lazy ordering rests on.
//   - the anchor arena holds one row per stored object, every id an
//     anchor or the sentinel, stored distances equal recomputed ones, and
//     the deflated anchor bound never exceeds a true distance (sampled) —
//     the fact the exactness of the row gate rests on.
//   - the coordinate arena repeats every stored location, and every
//     cluster's scan block equals the arena rows of its elements in
//     array order — a window of the arenas exactly when the elements are
//     contiguous, a private copy otherwise (see layout.go).
//   - the Ks×Kt grid holds exactly the listed clusters, each at the cell
//     of its own side pair, and nil everywhere else.
func (x *Index) CheckInvariants() error {
	if err := x.checkProjBoundSoundness(); err != nil {
		return err
	}
	if err := x.checkAnchors(); err != nil {
		return err
	}
	if err := x.checkLayout(); err != nil {
		return err
	}
	if err := x.checkGrid(); err != nil {
		return err
	}
	const eps = 1e-9
	seen := make(map[uint32]int)
	for ci, c := range x.clusters {
		if len(c.members) == 0 {
			return fmt.Errorf("cluster %d is empty but retained", ci)
		}
		if len(c.elems) != len(c.members) {
			return fmt.Errorf("cluster %d: %d elems for %d members", ci, len(c.elems), len(c.members))
		}
		memberDs := make(map[uint32]member, len(c.members))
		for _, m := range c.members {
			if x.deleted.get(m.idx) {
				return fmt.Errorf("cluster %d holds deleted object %d", ci, m.idx)
			}
			if _, dup := seen[m.idx]; dup {
				return fmt.Errorf("object %d in more than one hybrid cluster", m.idx)
			}
			seen[m.idx] = ci
			if ds := x.spatialToCent(m.idx, c.s); abs(ds-m.ds) > eps {
				return fmt.Errorf("object %d stored ds %v, recomputed %v", m.idx, m.ds, ds)
			}
			if dt := x.semanticToCent(m.idx, c.t); abs(dt-m.dt) > eps {
				return fmt.Errorf("object %d stored dt %v, recomputed %v", m.idx, m.dt, dt)
			}
			if m.ds > x.sRad[c.s]+eps {
				return fmt.Errorf("object %d outside spatial radius: %v > %v", m.idx, m.ds, x.sRad[c.s])
			}
			if m.dt > x.tRad[c.t]+eps {
				return fmt.Errorf("object %d outside semantic radius: %v > %v", m.idx, m.dt, x.tRad[c.t])
			}
			if dp := x.projToCent(m.idx, c.t); dp > x.tRadProj[c.t]+eps {
				return fmt.Errorf("object %d outside projected radius: %v > %v", m.idx, dp, x.tRadProj[c.t])
			}
			memberDs[m.idx] = m
		}
		prevDs, prevDt := 2.0, 2.0 // normalized distances never exceed 1
		inElems := make(map[uint32]bool, len(c.elems))
		for ei, e := range c.elems {
			if inElems[e.idx] {
				return fmt.Errorf("cluster %d: object %d twice in elems", ci, e.idx)
			}
			inElems[e.idx] = true
			m, ok := memberDs[e.idx]
			if !ok {
				return fmt.Errorf("cluster %d: elems hold non-member %d", ci, e.idx)
			}
			// Conservativeness: for every λ, λ·e.ds+(1−λ)·e.dt ≥
			// λ·m.ds+(1−λ)·m.dt, which holds iff both coordinates
			// dominate.
			if e.ds < m.ds-eps || e.dt < m.dt-eps {
				return fmt.Errorf("cluster %d elem %d: threshold (%v,%v) below true (%v,%v)",
					ci, ei, e.ds, e.dt, m.ds, m.dt)
			}
			// Monotonicity along the array.
			if e.ds > prevDs+eps || e.dt > prevDt+eps {
				return fmt.Errorf("cluster %d elem %d: thresholds increased", ci, ei)
			}
			prevDs, prevDt = e.ds, e.dt
		}
	}
	// With a write overlay, clusters still hold tombstoned base members
	// (the base is immutable) and none of the overlay's inserts.
	if int64(len(seen)) != x.baseElems() {
		return fmt.Errorf("clusters hold %d objects, base live count is %d", len(seen), x.baseElems())
	}
	return x.checkOverlay()
}

// checkGrid verifies the dense cluster directory the frontier's cursors
// walk: a cell is non-nil exactly when a listed cluster names its side
// pair, and then it is that cluster.
func (x *Index) checkGrid() error {
	ks, kt := len(x.sCentX), len(x.tCent)
	if len(x.grid) != ks*kt {
		return fmt.Errorf("grid has %d cells for %d×%d side clusters", len(x.grid), ks, kt)
	}
	for ci, c := range x.clusters {
		if c.s < 0 || c.s >= ks || c.t < 0 || c.t >= kt {
			return fmt.Errorf("cluster %d names side pair (%d,%d) outside %d×%d", ci, c.s, c.t, ks, kt)
		}
		if x.grid[x.cell(c.s, c.t)] != c {
			return fmt.Errorf("cluster %d is not the grid's cell (%d,%d)", ci, c.s, c.t)
		}
	}
	populated := 0
	for _, c := range x.grid {
		if c != nil {
			populated++
		}
	}
	if populated != len(x.clusters) {
		return fmt.Errorf("grid populates %d cells for %d clusters", populated, len(x.clusters))
	}
	return nil
}

// checkOverlay verifies the write overlay's internal consistency: the
// log's three arrays agree, stay inside the claimed tail and every
// stored object views its own arena row; the counters match the bitsets;
// the ID table and the group index are sorted, duplicate-free, bucketed
// by their hash and name exactly the live log slots and the groups; the
// group member lists partition the log in ascending order and the group
// radii cover their members (the fact scanDelta's pruning rests on); and
// tombstones only mark base positions that are live in the base.
func (x *Index) checkOverlay() error {
	d := x.delta
	if d == nil {
		return nil
	}
	n := len(d.objs)
	if len(d.vecs) != n*d.dim || len(d.projs) != n*d.m {
		return fmt.Errorf("overlay: %d log slots but %d vector and %d projection values", n, len(d.vecs), len(d.projs))
	}
	if cap(d.vecs) < cap(d.objs)*d.dim || cap(d.projs) < cap(d.objs)*d.m {
		return fmt.Errorf("overlay: arenas hold fewer slots than the object log's %d", cap(d.objs))
	}
	if n > 0 && (d.tail == nil || int64(n) > d.tail.Load()) {
		return fmt.Errorf("overlay: %d log slots exceed the claimed tail", n)
	}
	for i := range d.objs {
		if v := d.objs[i].Vec; len(v) != d.dim || (d.dim > 0 && &v[0] != &d.vecs[i*d.dim]) {
			return fmt.Errorf("overlay: log slot %d does not view its arena row", i)
		}
	}
	if got := n - d.dead.count(); got != d.liveCount {
		return fmt.Errorf("overlay: %d live log slots, liveCount is %d", got, d.liveCount)
	}
	if got := d.tombs.count(); got != d.nTombs {
		return fmt.Errorf("overlay: %d tombstone bits, nTombs is %d", got, d.nTombs)
	}
	if err := d.idToPos.check("ID table", d.liveCount, func(id, pos uint32) bool {
		return int(pos) < n && d.objs[pos].ID == id && !d.dead.get(pos)
	}); err != nil {
		return err
	}
	if err := d.groupIdx.check("group index", d.groups.n, func(key, gi uint32) bool {
		return int(gi) < d.groups.n && x.groupKey(d.groups.at(int(gi)).s, d.groups.at(int(gi)).t) == key
	}); err != nil {
		return err
	}
	for i := range x.objects {
		if x.deleted.get(uint32(i)) && d.tombs.get(uint32(i)) {
			return fmt.Errorf("overlay: tombstone on base-deleted position %d", i)
		}
	}
	const eps = 1e-9
	grouped := newBitset(n)
	members := 0
	for gi := 0; gi < d.groups.n; gi++ {
		g := d.groups.at(gi)
		for mi, pos := range g.members {
			if int(pos) >= n || grouped.get(pos) {
				return fmt.Errorf("overlay group %d: log slot %d is out of range or in more than one group", gi, pos)
			}
			if mi > 0 && pos <= g.members[mi-1] {
				return fmt.Errorf("overlay group %d: members not in append order at %d", gi, mi)
			}
			grouped.set(pos)
			members++
			if d.dead.get(pos) {
				continue
			}
			o := &d.objs[pos]
			if ds := x.space.SpatialXY(o.X, o.Y, x.sCentX[g.s], x.sCentY[g.s]); ds > g.maxDs+eps {
				return fmt.Errorf("overlay group %d: member %d outside spatial radius: %v > %v", gi, pos, ds, g.maxDs)
			}
			if g.t >= 0 {
				if dt := x.space.SemanticVec(o.Vec, x.tCent[g.t]); dt > g.maxDt+eps {
					return fmt.Errorf("overlay group %d: member %d outside semantic radius: %v > %v", gi, pos, dt, g.maxDt)
				}
			}
		}
	}
	if members != n {
		return fmt.Errorf("overlay: groups hold %d of %d log slots", members, n)
	}
	return nil
}

// check verifies the table's shape — every bucket strictly ascending and
// holding only keys that hash to it, want entries in total — and that ok
// accepts every entry.
func (t *idTable) check(name string, want int, ok func(key, val uint32) bool) error {
	total := 0
	for bi, b := range t.buckets {
		for i, p := range b {
			if idBucket(p.key) != uint32(bi) || (i > 0 && p.key <= b[i-1].key) {
				return fmt.Errorf("overlay: %s bucket %d is misplaced or unsorted at key %d", name, bi, p.key)
			}
			if !ok(p.key, p.val) {
				return fmt.Errorf("overlay: %s entry %d -> %d is stale", name, p.key, p.val)
			}
		}
		total += len(b)
	}
	if total != want {
		return fmt.Errorf("overlay: %s holds %d entries, want %d", name, total, want)
	}
	return nil
}

// checkProjBoundSoundness guards the invariant the lazy cluster ordering
// of Search is exact under: centroids are never recomputed after build
// (maintenance only moves radii), so tCentProj[t] remains the PCA image
// of tCent[t], and the deflated projected estimate of fillProjLowerBounds
// is a true lower bound on the original-space centroid distance. It
// verifies both directly — first that each projected centroid matches a
// fresh projection of its original-space centroid, then, using a sample
// of live objects as probe queries, that the weak bound never exceeds
// the true distance. A failure here means a centroid was updated in one
// representation but not the other (or the projection stopped being a
// contraction), which would silently turn exact search approximate.
func (x *Index) checkProjBoundSoundness() error {
	if x.space.SemanticKind != metric.EuclideanSemantic || x.pcaModel == nil || x.m <= 0 {
		return nil // the lazy ordering is disabled; nothing to guard
	}
	reproj := make([]float32, x.m)
	for t := range x.tCent {
		if len(x.tMembers[t]) == 0 {
			continue // never-populated clusters carry meaningless centroids
		}
		x.pcaModel.TransformInto(reproj, x.tCent[t])
		// The stored projected centroid is the mean of member projections;
		// by linearity it equals the projection of the mean up to float32
		// rounding, which projWeakAbsSlack dominates by >100×.
		if d := vec.Dist(reproj, x.tCentProj[t]) / x.space.DtMax; d > projWeakAbsSlack/10 {
			return fmt.Errorf("semantic centroid %d: projected centroid drifted %v (normalized) from the projection of the original-space centroid", t, d)
		}
	}
	// Probe the bound itself with stored objects as queries (a sample
	// keeps CheckInvariants O(n) for large indexes).
	const maxProbes = 128
	probes := 0
	inv := (1 - projWeakRelSlack) / x.space.DtMax
	for i := range x.objects {
		if x.deleted.get(uint32(i)) {
			continue
		}
		if probes++; probes > maxProbes {
			break
		}
		qProj := x.projAt(uint32(i))
		for t := range x.tCent {
			if len(x.tMembers[t]) == 0 {
				continue
			}
			weak := vec.Dist(qProj, x.tCentProj[t])*inv - projWeakAbsSlack
			if weak < 0 {
				weak = 0
			}
			if truth := x.semanticToCent(uint32(i), t); weak > truth {
				return fmt.Errorf("object %d, semantic centroid %d: projected weak bound %v exceeds true centroid distance %v", i, t, weak, truth)
			}
		}
	}
	return nil
}

// checkLayout guards what the scan loops assume of storage: the
// coordinate arena repeats objects[i].X/Y, every cluster's header
// repeats its first element's thresholds (−Inf when it has none), and
// every cluster's block (fillClusterBlock ran wherever buildElems did)
// holds, row for row in elems order, the arena rows of its elements. A
// cluster whose elements are contiguous must read the arenas themselves
// — same addresses, no copy — and a cluster whose elements are not must
// read private memory.
func (x *Index) checkLayout() error {
	n, aa := len(x.objects), x.anchors
	if len(x.xArena) != n || len(x.yArena) != n {
		return fmt.Errorf("coordinate arena holds %d/%d rows for %d objects", len(x.xArena), len(x.yArena), n)
	}
	for i := range x.objects {
		if x.xArena[i] != x.objects[i].X || x.yArena[i] != x.objects[i].Y {
			return fmt.Errorf("object %d: coordinate arena (%v,%v), stored (%v,%v)",
				i, x.xArena[i], x.yArena[i], x.objects[i].X, x.objects[i].Y)
		}
	}
	var win clusterBlock
	for ci, c := range x.clusters {
		blk, ne := x.block(&win, c), len(c.elems)
		if wantDs, wantDt := headThresholds(c.elems); c.headDs != wantDs || c.headDt != wantDt {
			return fmt.Errorf("cluster %d: head thresholds (%v,%v), first element carries (%v,%v)", ci, c.headDs, c.headDt, wantDs, wantDt)
		}
		if len(blk.xs) != ne || len(blk.ys) != ne {
			return fmt.Errorf("cluster %d: block holds %d/%d coordinates for %d elems", ci, len(blk.xs), len(blk.ys), ne)
		}
		if len(blk.aid) != ne || len(blk.adist) != ne {
			return fmt.Errorf("cluster %d: block holds %d/%d anchor rows for %d elems", ci, len(blk.aid), len(blk.adist), ne)
		}
		for j := range c.elems {
			idx := c.elems[j].idx
			if blk.xs[j] != x.xArena[idx] || blk.ys[j] != x.yArena[idx] {
				return fmt.Errorf("cluster %d elem %d: block location disagrees with object %d", ci, j, idx)
			}
			if blk.aid[j] != aa.id[idx] || math.Float32bits(blk.adist[j]) != math.Float32bits(aa.dist[idx]) {
				return fmt.Errorf("cluster %d elem %d: block anchor row disagrees with arena row of object %d", ci, j, idx)
			}
		}
		if ne == 0 {
			continue
		}
		base := int(c.elems[0].idx)
		aliases := &blk.xs[0] == &x.xArena[base] && &blk.ys[0] == &x.yArena[base] &&
			&blk.aid[0] == &aa.id[base] && &blk.adist[0] == &aa.dist[base]
		switch contig := contiguous(c.elems); {
		case contig && !aliases:
			return fmt.Errorf("cluster %d: contiguous at %d but its block is a copy", ci, base)
		case !contig && (c.base >= 0 || aliases):
			return fmt.Errorf("cluster %d: not contiguous but its block reads the arenas (base %d)", ci, c.base)
		}
	}
	return nil
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
