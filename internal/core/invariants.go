package core

import (
	"fmt"
	"slices"
	"sync/atomic"

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

// checkOverlay verifies the write overlay as x's header sees it: the
// log's arenas hold its slots and every stored object views its own
// arena row; no death or tombstone stamp is above the lineage's
// sequence; the header's live, tombstone and live-slot counts are what
// its stamps imply at its own sequence; the ID table resolves every live
// slot's ID to that slot and nothing else to a live slot; and the groups'
// member chains partition the log in ascending order, one group per side
// pair, with covering radii, as of the header, over their live members
// (the fact scanDelta's pruning rests on).
func (x *Index) checkOverlay() error {
	d, v := x.delta, &x.dv
	if want := x.rows() - v.nTombs + v.liveCount; x.live != want {
		return fmt.Errorf("live is %d: %d base rows, %d tombstoned, %d overlay inserts", x.live, x.rows(), v.nTombs, v.liveCount)
	}
	if d == nil {
		return nil
	}
	seq := uint32(d.seq.Load())
	if uint32(v.ops) > seq {
		return fmt.Errorf("overlay: header at op %d past the lineage's %d", v.ops, seq)
	}
	n := v.n
	if n > 0 && (v.log == nil || n > len(v.log.objs) || len(v.log.vecs) != len(v.log.objs)*d.dim || len(v.log.projs) != len(v.log.objs)*d.m) {
		return fmt.Errorf("overlay: %d log slots outside the log's arenas", n)
	}
	live := 0
	for i := range n {
		if vv := v.log.objs[i].Vec; len(vv) != d.dim || (d.dim > 0 && &vv[0] != &v.log.vecs[i*d.dim]) {
			return fmt.Errorf("overlay: log slot %d does not view its arena row", i)
		}
		if s := v.log.dead[i].Load(); s > seq {
			return fmt.Errorf("overlay: log slot %d stamped dead at op %d, past the lineage's %d", i, s, seq)
		}
		if !v.dead(uint32(i)) {
			live++
		}
	}
	if live != v.liveCount {
		return fmt.Errorf("overlay: %d live log slots at op %d, liveCount is %d", live, v.ops, v.liveCount)
	}
	tombs := 0
	for i := range v.tombStamp {
		s := atomic.LoadUint32(&v.tombStamp[i])
		if s > seq || (s != 0) != (atomic.LoadUint64(&v.tombBits[i>>6])>>(i&63)&1 != 0) {
			return fmt.Errorf("overlay: base row %d carries tombstone stamp %d, its bit disagrees or the lineage is at %d", i, s, seq)
		}
		if s != 0 && s <= uint32(v.ops) {
			tombs++
		}
	}
	if tombs != v.nTombs {
		return fmt.Errorf("overlay: %d tombstones at op %d, nTombs is %d", tombs, v.ops, v.nTombs)
	}
	keys, t := 0, d.ids.Load()
	for i := range t.e {
		w := t.e[i].Load()
		id := uint32(w >> 32)
		switch p, ok := d.slotAt(v, id); {
		case uint32(w) == 0 || !ok:
		case v.log.objs[p].ID != id:
			return fmt.Errorf("overlay ID table: %d resolves to log slot %d of ID %d", id, p, v.log.objs[p].ID)
		default:
			keys++
		}
	}
	if keys != v.liveCount {
		return fmt.Errorf("overlay ID table resolves %d IDs to live slots, want %d", keys, v.liveCount)
	}
	const eps = 1e-9
	grouped := newBitset(n)
	cells := make(map[int]bool, len(v.groups))
	members := 0
	for gi, g := range v.groups {
		if cells[x.cell(g.s, g.t)] {
			return fmt.Errorf("overlay group %d: side pair (%d,%d) has another group", gi, g.s, g.t)
		}
		cells[x.cell(g.s, g.t)] = true
		maxDs, maxDt := v.radii(g)
		prev := -1
		for pos := g.first; pos < uint32(n); pos = v.log.next[pos].Load() {
			if int(pos) <= prev || grouped.get(pos) {
				return fmt.Errorf("overlay group %d: log slot %d out of append order or in more than one group", gi, pos)
			}
			prev = int(pos)
			grouped.set(pos)
			members++
			if v.dead(pos) {
				continue
			}
			o := &v.log.objs[pos]
			if ds := x.space.SpatialXY(o.X, o.Y, x.sCentX[g.s], x.sCentY[g.s]); ds > maxDs+eps {
				return fmt.Errorf("overlay group %d: member %d outside spatial radius: %v > %v", gi, pos, ds, maxDs)
			}
			if dt := x.space.SemanticVec(o.Vec, x.tCent[g.t]); dt > maxDt+eps {
				return fmt.Errorf("overlay group %d: member %d outside semantic radius: %v > %v", gi, pos, dt, maxDt)
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
