package core

import (
	"fmt"
	"slices"

	"repro/internal/metric"
	"repro/internal/vec"
)

// CheckInvariants verifies the structural properties the correctness
// proofs rest on. It is exercised by the test suite after builds and
// after maintenance streams; production code never calls it.
//
// Checked invariants:
//   - every row belongs to exactly one hybrid cluster, the one its cell
//     names: the clusters' arena windows tile storage;
//   - every cluster radius covers all its members, in all three
//     representations (spatial, semantic original, semantic projected);
//   - every element array is exactly the merge a from-scratch ordering
//     of its window's rows gives, their distances recomputed as
//     sideDists computes them — so it lists each member once and is
//     conservative and monotone (see array.go);
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
//   - every column and arena holds one row per storage position, the ID
//     table maps exactly the rows' IDs to their positions, and every
//     cell names a grid cell.
//   - every cluster's elements are contiguous and its scan block is the
//     arenas' window over them (see layout.go).
//   - the Ks×Kt grid holds exactly the listed clusters, each at the cell
//     of its own side pair, and nil everywhere else.
func (x *Index) CheckInvariants() error {
	if err := x.checkColumns(); err != nil {
		return err
	}
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
	// Windows of clusters at distinct cells are disjoint once every row
	// in them carries its cluster's cell, so they tile storage when
	// their lengths add up to the rows.
	const eps = 1e-9
	rows := 0
	for ci, c := range x.clusters {
		ms := make([]member, len(c.elems))
		for j := range ms {
			idx := uint32(c.base + j)
			if x.cells[idx] != uint32(x.cell(c.s, c.t)) {
				return fmt.Errorf("object %d in the window of cluster (%d,%d), its cell is %d", idx, c.s, c.t, x.cells[idx])
			}
			m := member{idx: idx, ds: x.spatialToCent(idx, c.s), dt: x.semanticToCent(idx, c.t)}
			if m.ds > x.sRad[c.s]+eps {
				return fmt.Errorf("object %d outside spatial radius: %v > %v", idx, m.ds, x.sRad[c.s])
			}
			if m.dt > x.tRad[c.t]+eps {
				return fmt.Errorf("object %d outside semantic radius: %v > %v", idx, m.dt, x.tRad[c.t])
			}
			if dp := x.projToCent(idx, c.t); dp > x.tRadProj[c.t]+eps {
				return fmt.Errorf("object %d outside projected radius: %v > %v", idx, dp, x.tRadProj[c.t])
			}
			ms[j] = m
		}
		var want hybrid
		want.buildElems(ms)
		if !slices.Equal(c.elems, want.elems) {
			return fmt.Errorf("cluster %d: elems differ from the merge of its rows' lists", ci)
		}
		rows += len(c.elems)
	}
	if rows != x.rows() {
		return fmt.Errorf("clusters hold %d of %d rows", rows, x.rows())
	}
	// With a write overlay, the base rows include the ones it tombstoned.
	if want := x.baseLive() + int64(x.deltaTombs().count()); int64(x.rows()) != want {
		return fmt.Errorf("the base holds %d rows, its live and tombstoned rows are %d", x.rows(), want)
	}
	return x.checkOverlay()
}

// checkColumns verifies the per-row storage everything else indexes:
// every column and arena one row per storage position, the ID table a
// bijection between the rows' IDs and their positions, and every cell
// inside the Ks×Kt grid.
func (x *Index) checkColumns() error {
	n := x.rows()
	for _, c := range []struct {
		name string
		rows int
	}{
		{"texts", len(x.texts)}, {"topics", len(x.topics)},
		{"cells", len(x.cells)},
		{"x coordinates", len(x.xArena)}, {"y coordinates", len(x.yArena)},
	} {
		if c.rows != n {
			return fmt.Errorf("%s hold %d rows for %d IDs", c.name, c.rows, n)
		}
	}
	if len(x.vecArena) != n*x.dim || len(x.projArena) != n*x.m {
		return fmt.Errorf("arenas hold %d/%d values for %d rows of %d/%d", len(x.vecArena), len(x.projArena), n, x.dim, x.m)
	}
	if err := x.idIdx.check("ID table", n, func(id, pos uint32) bool {
		return int(pos) < n && x.ids[pos] == id
	}); err != nil {
		return err
	}
	for i, cell := range x.cells {
		if int(cell) >= len(x.sCentX)*len(x.tCent) {
			return fmt.Errorf("row %d assigned to cell %d outside %d×%d", i, cell, len(x.sCentX), len(x.tCent))
		}
	}
	return nil
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
// by their hash and name exactly the live log slots and the groups; and
// the group member lists partition the log in ascending order and the
// group radii cover their members (the fact scanDelta's pruning rests
// on).
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
	if err := d.idToPos.check("overlay ID table", d.liveCount, func(id, pos uint32) bool {
		return int(pos) < n && d.objs[pos].ID == id && !d.dead.get(pos)
	}); err != nil {
		return err
	}
	if err := d.groupIdx.check("overlay group index", d.groups.n, func(key, gi uint32) bool {
		return int(gi) < d.groups.n && uint32(x.cell(d.groups.at(int(gi)).s, d.groups.at(int(gi)).t)) == key
	}); err != nil {
		return err
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
			if dt := x.space.SemanticVec(o.Vec, x.tCent[g.t]); dt > g.maxDt+eps {
				return fmt.Errorf("overlay group %d: member %d outside semantic radius: %v > %v", gi, pos, dt, g.maxDt)
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
				return fmt.Errorf("%s bucket %d is misplaced or unsorted at key %d", name, bi, p.key)
			}
			if !ok(p.key, p.val) {
				return fmt.Errorf("%s entry %d -> %d is stale", name, p.key, p.val)
			}
		}
		total += len(b)
	}
	if total != want {
		return fmt.Errorf("%s holds %d entries, want %d", name, total, want)
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
		if !x.tValid[t] {
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
	inv := (1 - projWeakRelSlack) / x.space.DtMax
	for i := range min(x.rows(), maxProbes) {
		qProj := x.projAt(uint32(i))
		for t := range x.tCent {
			if !x.tValid[t] {
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

// checkLayout guards what the scan loops assume of storage: every
// cluster is non-empty, its header repeats its first element's
// thresholds, and its elements sit at consecutive storage positions from
// its base, inside storage, so that its scan block, the arenas' window
// there, holds its rows in elems order.
func (x *Index) checkLayout() error {
	for ci, c := range x.clusters {
		if len(c.elems) == 0 {
			return fmt.Errorf("cluster %d is empty but retained", ci)
		}
		if e := c.elems[0]; c.headDs != e.ds || c.headDt != e.dt {
			return fmt.Errorf("cluster %d: head thresholds (%v,%v), first element carries (%v,%v)", ci, c.headDs, c.headDt, e.ds, e.dt)
		}
		if !contiguous(c.elems) || c.base != int(c.elems[0].idx) || c.base+len(c.elems) > x.rows() {
			return fmt.Errorf("cluster %d: elements not contiguous from its base %d", ci, c.base)
		}
	}
	return nil
}
