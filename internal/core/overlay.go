package core

import (
	"fmt"
	"maps"
	"math/bits"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/knn"
	"repro/internal/metric"
)

// Write overlay (delta) over an immutable base snapshot.
//
// Every write to an Index lands here (Insert and Delete in maintain.go);
// a flat index's first write creates its overlay, and no base structure
// is ever written after derive built it. An insert appends the object to
// the overlay's log, with its vector and projection copied into the
// log's arenas, and joins a mini "group" keyed by its side pair
// (nearestSides); a delete of a base object sets a tombstone at its
// storage position, a delete of an overlay object marks its log slot
// dead; an update is a delete followed by an insert.
//
// Search runs base + delta: the base scan skips tombstoned positions,
// and scanDelta chains the overlay's live inserts onto the same k-NN
// heap. knn.Heap's final contents are a pure function of the offered
// candidate set (ties break by ascending ID), so exact results are
// bit-identical to a full rebuild over the same live set. Compact folds
// the overlay into a fresh flat base through derive, as Build and Load
// end; folding at the compaction threshold bounds the overlay.
//
// One overlay serves a fold lineage: every snapshot published between
// two folds shares it, and its one writer (a bare index, or a shard's
// next snapshot under the cell's writer mutex) mutates it in place. A
// snapshot is its header over it (deltaView): its op count, which is its
// sequence number, the log and group lengths it sees, its live and
// tombstone counts. A write copies nothing earlier headers see:
//
//   - An insert appends at slot n and links it as its group's last
//     member, both past every published header. A group's covering radii
//     are recorded per member (the radii once it joined), and a header
//     reads them at the group's last member inside its log, so it never
//     sees a later widening.
//   - A delete stamps the slot's death, or the base row's tombstone, with
//     its op's sequence number; a header treats either as gone only when
//     the stamp is ≤ its own sequence. The tombstone test stays one bitset
//     word per row; the stamp is read for set bits only.
//   - Stamps, member links, tombstone words and the ID table are read and
//     written atomically; all else a header reads below its lengths was
//     written before it was published and is never written again, so a
//     pinned snapshot answers the same forever.
//
// A write to a header the lineage was written past (a sibling of the
// head, or an ancestor) first forks a private copy of the overlay as of
// that header. A batch that fails rolls the lineage back to the header
// it started from (Rollback) before the writer is released.
type overlayDelta struct {
	dim, m, kt int // arena strides and the semantic side count of the base

	// ids maps every overlay ID to its latest log slot, dead or alive:
	// the one lookup readers share across headers.
	ids atomic.Pointer[slotTable]
	// seq is the head's op count, CheckInvariants' bound on stamps.
	seq atomic.Int64

	// Writer-only: the head's header, one undo record per log slot of the
	// head, and the group of each grid cell.
	head     deltaView
	undo     []slotUndo
	groupIdx map[uint32]uint32
}

const noSlot = ^uint32(0) // no log slot: none earlier, a chain's end

// slotUndo is what the insert into one log slot overwrote: the ID's
// latest slot and its group's last member (noSlot: the slot opened it).
type slotUndo struct {
	prevSlot, prevLast, group uint32
}

// deltaView is one snapshot's header over its lineage's overlay.
type deltaView struct {
	log    *logBuf
	n      int             // log slots
	groups []*overlayGroup // in creation order
	// tombBits and tombStamp hold one bit and one stamp per base row,
	// allocated at the lineage's first base delete.
	tombBits  bitset
	tombStamp []uint32
	// ops counts the mutations since the base was built or compacted,
	// the compaction trigger and the header's sequence number.
	ops       int
	liveCount int // live log slots
	nTombs    int // tombstoned base rows
}

// logBuf backs the append log. Slot i holds objs[i], whose Vec views
// vecs' row i, its projection (projs' row i), its death stamp (0 while
// live), the next member of its group, and its group's covering radii
// once it joined. A full buffer is replaced by a copy of twice the
// capacity; headers published before keep theirs.
type logBuf struct {
	dim, m       int
	objs         []dataset.Object // len = capacity in slots
	vecs, projs  []float32
	dead, next   []atomic.Uint32
	radDs, radDt []float64
}

// overlayGroup is a mini cluster of overlay inserts sharing one side
// pair: a chain of log slots, ascending from first, linked through the
// log's next column, ending at last.
type overlayGroup struct {
	s, t  int
	first uint32
	last  atomic.Uint32
}

func newLogBuf(slots, dim, m int) *logBuf {
	return &logBuf{
		dim: dim, m: m,
		objs:  make([]dataset.Object, slots),
		vecs:  make([]float32, slots*dim),
		projs: make([]float32, slots*m),
		dead:  make([]atomic.Uint32, slots),
		next:  make([]atomic.Uint32, slots),
		radDs: make([]float64, slots),
		radDt: make([]float64, slots),
	}
}

// copyInto copies b's first n slots into nb and returns nb.
func (b *logBuf) copyInto(nb *logBuf, n int) *logBuf {
	copy(nb.vecs, b.vecs[:n*b.dim])
	copy(nb.projs, b.projs[:n*b.m])
	copy(nb.radDs, b.radDs[:n])
	copy(nb.radDt, b.radDt[:n])
	for i := range n {
		nb.objs[i] = b.objs[i]
		nb.objs[i].Vec = nb.vecRow(uint32(i))
		nb.dead[i].Store(b.dead[i].Load())
		nb.next[i].Store(b.next[i].Load())
	}
	return nb
}

// vecRow and projRow return the arena rows of slot pos.
func (b *logBuf) vecRow(pos uint32) []float32 {
	return b.vecs[int(pos)*b.dim : (int(pos)+1)*b.dim : (int(pos)+1)*b.dim]
}

func (b *logBuf) projRow(pos uint32) []float32 {
	return b.projs[int(pos)*b.m : (int(pos)+1)*b.m : (int(pos)+1)*b.m]
}

// dead reports whether slot pos (< v.n) is dead as of the header.
func (v *deltaView) dead(pos uint32) bool {
	s := v.log.dead[pos].Load()
	return s != 0 && s <= uint32(v.ops)
}

// radii returns g's covering radii as of the header: those recorded at
// its last member inside the header's log — g's last member, unless a
// later write extended g and the chain must be walked.
func (v *deltaView) radii(g *overlayGroup) (float64, float64) {
	n, p := uint32(v.n), g.last.Load()
	if p >= n {
		p = g.first
		for q := v.log.next[p].Load(); q < n; q = v.log.next[q].Load() {
			p = q
		}
	}
	return v.log.radDs[p], v.log.radDt[p]
}

// appendLog stores o in the header's next log slot, its vector copied
// into the arena row the stored object then views, and returns the slot;
// the caller fills the projection row.
func (d *overlayDelta) appendLog(v *deltaView, o dataset.Object) uint32 {
	if v.log == nil || v.n == len(v.log.objs) {
		nb := newLogBuf(max(2*v.n, 16), d.dim, d.m)
		if v.log != nil {
			v.log.copyInto(nb, v.n)
		}
		v.log = nb
		d.undo = slices.Grow(d.undo, len(nb.objs)-len(d.undo))
	}
	pos := uint32(v.n)
	row := v.log.vecRow(pos)
	copy(row, o.Vec)
	o.Vec = row
	v.log.objs[pos] = o
	// A slot a rolled-back batch used may carry its stamp and link.
	v.log.dead[pos].Store(0)
	v.log.next[pos].Store(noSlot)
	v.n++
	return pos
}

// join makes slot pos, an insert at distances ds, dt from side pair
// (s,t), the last member of the pair's group (a new group when the pair
// has none), records the group's radii once it joined, and logs the
// slot's undo record, prevSlot being the ID's slot before it.
func (d *overlayDelta) join(v *deltaView, pos, prevSlot uint32, s, t int, ds, dt float64) {
	u := slotUndo{prevSlot: prevSlot, prevLast: noSlot}
	key := uint32(s*d.kt + t)
	gi, ok := d.groupIdx[key]
	if !ok {
		gi = uint32(len(v.groups))
		g := &overlayGroup{s: s, t: t, first: pos}
		v.groups = append(v.groups, g)
		d.groupIdx[key] = gi
	} else {
		u.prevLast = v.groups[gi].last.Load()
		ds, dt = max(ds, v.log.radDs[u.prevLast]), max(dt, v.log.radDt[u.prevLast])
	}
	u.group = gi
	v.log.radDs[pos], v.log.radDt[pos] = ds, dt
	d.undo = append(d.undo, u)
	if u.prevLast != noSlot {
		v.log.next[u.prevLast].Store(pos)
	}
	v.groups[gi].last.Store(pos)
}

// slotAt returns the slot of the overlay object with the given ID that is
// live as of header v, any header of the lineage. The table names the
// ID's latest slot; when that lies past v's log, v's log is searched
// from its end.
func (d *overlayDelta) slotAt(v *deltaView, id uint32) (uint32, bool) {
	p := d.ids.Load().get(id)
	if p != noSlot && p >= uint32(v.n) {
		for p = uint32(v.n) - 1; p != noSlot && v.log.objs[p].ID != id; p-- {
		}
	}
	return p, p != noSlot && !v.dead(p)
}

// setSlot makes slot the ID's latest in the shared table.
func (d *overlayDelta) setSlot(id, slot uint32) {
	if nt := d.ids.Load().set(id, slot); nt != nil {
		d.ids.Store(nt)
	}
}

// tomb stamps base row idx deleted by op seq, allocating the lineage's
// tombstones at its first base delete. One writer: no update is lost.
func (v *deltaView) tomb(rows int, idx, seq uint32) {
	if v.tombBits == nil {
		v.tombBits, v.tombStamp = newBitset(rows), make([]uint32, rows)
	}
	atomic.StoreUint32(&v.tombStamp[idx], seq)
	w := &v.tombBits[idx>>6]
	atomic.StoreUint64(w, atomic.LoadUint64(w)|1<<(idx&63))
	v.nTombs++
}

// tombView is one header's view of the base tombstones: a row is gone
// when its bit is set and its stamp is at most seq. The zero view holds
// no row.
type tombView struct {
	bits  bitset
	stamp []uint32
	seq   uint32
}

// get reports whether base row i is tombstoned as of the view.
func (t tombView) get(i uint32) bool {
	if t.bits == nil || atomic.LoadUint64(&t.bits[i>>6])>>(i&63)&1 == 0 {
		return false
	}
	s := atomic.LoadUint32(&t.stamp[i])
	return s != 0 && s <= t.seq
}

// countRange returns the number of tombstoned rows among [lo, hi),
// skipping clear words whole.
func (t tombView) countRange(lo, hi int) int {
	n := 0
	for i := lo; t.bits != nil && i < hi; i++ {
		word := atomic.LoadUint64(&t.bits[i>>6]) >> (i & 63)
		if word == 0 {
			i |= 63
			continue
		}
		if i += bits.TrailingZeros64(word); i < hi && t.get(uint32(i)) {
			n++
		}
	}
	return n
}

// deltaTombs returns the header's tombstone view: the zero view when it
// has none, so scan loops hoist it and the per-row check vanishes on
// tombstone-free snapshots.
func (x *Index) deltaTombs() tombView {
	if x.dv.nTombs == 0 {
		return tombView{}
	}
	return tombView{bits: x.dv.tombBits, stamp: x.dv.tombStamp, seq: uint32(x.dv.ops)}
}

// writeDelta returns the overlay x's next write lands in, x's header its
// head: the index's own, created by a flat index's first write, or a
// fork when the lineage was written past x's header.
func (x *Index) writeDelta() *overlayDelta {
	switch d := x.delta; {
	case d == nil:
		x.delta = &overlayDelta{dim: x.dim, m: x.m, kt: len(x.tCent), groupIdx: make(map[uint32]uint32)}
		x.delta.ids.Store(&slotTable{e: make([]atomic.Uint64, 16)})
	case d.head.ops != x.dv.ops || d.head.log != x.dv.log:
		x.delta = d.fork(&x.dv)
	}
	return x.delta
}

// endWrite makes header v, just written, the lineage's head.
func (d *overlayDelta) endWrite(v *deltaView) {
	d.head = *v
	d.seq.Store(int64(v.ops))
}

// fork returns a private copy of the overlay as header v sees it, and
// points v at it: the lineage as of its head, copied, rolled back to v.
func (d *overlayDelta) fork(v *deltaView) *overlayDelta {
	nd := &overlayDelta{dim: d.dim, m: d.m, kt: d.kt, undo: slices.Clone(d.undo), groupIdx: maps.Clone(d.groupIdx)}
	nd.ids.Store(d.ids.Load().grown(len(d.ids.Load().e)))
	h, nv := d.head, *v
	if h.log != nil {
		h.log = h.log.copyInto(newLogBuf(len(h.log.objs), d.dim, d.m), h.n)
	}
	h.groups = make([]*overlayGroup, len(d.head.groups))
	for i, g := range d.head.groups {
		h.groups[i] = &overlayGroup{s: g.s, t: g.t, first: g.first}
		h.groups[i].last.Store(g.last.Load())
	}
	if h.tombBits != nil {
		h.tombBits, h.tombStamp = h.tombBits.clone(), slices.Clone(h.tombStamp)
	}
	nv.log, nv.groups = h.log, h.groups[:len(v.groups)]
	if v.tombBits != nil {
		nv.tombBits, nv.tombStamp = h.tombBits, h.tombStamp
	}
	nd.endWrite(&h)
	nd.rollback(nv)
	*v = nv
	return nd
}

// rollback undoes every write of the head past header to, an earlier
// header of the lineage, and makes to the head: the head's slots past
// to's log leave their groups (whose radii are those recorded at their
// restored last members) and the ID table, its new groups leave the
// group index, and its death and tombstone stamps are cleared. A reader
// of a published header sees none of it.
func (d *overlayDelta) rollback(to deltaView) {
	h := d.head
	for p := h.n - 1; p >= to.n; p-- {
		u := d.undo[p]
		if int(u.group) < len(to.groups) {
			to.groups[u.group].last.Store(u.prevLast)
			if u.prevLast < uint32(to.n) {
				to.log.next[u.prevLast].Store(noSlot)
			}
		}
		d.ids.Load().set(h.log.objs[p].ID, u.prevSlot)
	}
	d.undo = d.undo[:to.n]
	for _, g := range h.groups[len(to.groups):] {
		delete(d.groupIdx, uint32(g.s*d.kt+g.t))
	}
	seq := uint32(to.ops)
	for p := range to.n {
		if to.log.dead[p].Load() > seq {
			to.log.dead[p].Store(0)
		}
	}
	for i := range to.tombStamp {
		if atomic.LoadUint32(&to.tombStamp[i]) > seq {
			w := &to.tombBits[i>>6]
			atomic.StoreUint64(w, atomic.LoadUint64(w)&^(1<<(i&63)))
			atomic.StoreUint32(&to.tombStamp[i], 0)
		}
	}
	d.endWrite(&to)
}

// Rollback undoes the writes x took since it was copied from prev (a
// header copied by value), prev being the lineage's head then: the overlay
// returns to prev's state, and x must not be used again. A no-op when
// x's writes created its overlay.
func (x *Index) Rollback(prev *Index) {
	if d := x.delta; d != nil && d == prev.delta && x.dv.ops != prev.dv.ops {
		d.rollback(prev.dv)
	}
}

// DeltaOps returns the number of write operations the overlay has
// absorbed since the base was built or last compacted (0 on flat
// indexes) — the quantity compaction thresholds compare against.
func (x *Index) DeltaOps() int { return x.dv.ops }

// DeltaLive returns the number of live overlay inserts (0 on flat
// indexes).
func (x *Index) DeltaLive() int { return x.dv.liveCount }

// scanDelta chains the overlay's live inserts onto an exact k-NN heap.
// Groups prune with the Lemma 4.4 bound against their covering radii
// (ds(q,o) ≥ dsq(s) − maxDs, dt(q,o) ≥ dtq(t) − maxDt for a member o of
// group (s,t)), and only on lb > u (strict), so no member that could tie
// the k-th is skipped and base+delta results stay bit-identical to a
// compacted rebuild. Surviving members pass the read's restriction and
// pay scanCluster's exact kernel, the bound capped by the read's radius
// (+Inf for none). On a stripe of sh, h is nil and sh's one heap takes
// the pushes and sets every cut (see kth). Centroid distances come from
// sc's memo tables, which every caller set up for q on x just before,
// so a query pays at most Kt semantic centroid distances however many
// groups the overlay holds.
func (x *Index) scanDelta(sc *searchScratch, q *dataset.Object, lambda float64, h *knn.Heap, sh *stripeJob, st *metric.Stats) {
	v := &x.dv
	if v.liveCount == 0 {
		return
	}
	var phase time.Time
	if sc.obs != nil {
		phase = time.Now()
	}
	rs := &sc.rs
	n, next := uint32(v.n), v.log.next
	for _, g := range v.groups {
		if u, full := kth(h, rs.radius, sh); full {
			maxDs, maxDt := v.radii(g)
			if lowerBound(lambda, sc.dsq[g.s], maxDs, x.centroidDist(sc, q, g.t), maxDt) > u {
				if st != nil {
					st.ClustersPruned++
					for pos := g.first; pos < n; pos = next[pos].Load() {
						if !v.dead(pos) {
							st.InterPruned++
						}
					}
				}
				continue
			}
		}
		for pos := g.first; pos < n; pos = next[pos].Load() {
			if v.dead(pos) {
				continue
			}
			o := &v.log.objs[pos]
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
// rows as x's header sees them (gatherLive, so the lineage's writer may
// go on writing), each keeping its cell and stored projection, sets
// every side radius to the max over the side's live rows, and derives
// the rest over the kept model. The result is cluster-major with every
// row anchored; its first write creates an overlay of its own. The drift
// state carries over. Exact answers are bit-identical across the fold:
// both sides select the top-k by (distance, ID) from the same live set
// under admissible-only pruning.
func (x *Index) Compact() (*Index, error) {
	if x.delta == nil {
		return x, nil
	}
	nx := &Index{baseIndex: &baseIndex{
		cfg: x.cfg, space: x.space, pcaModel: x.pcaModel, dim: x.dim, m: x.m,
		sCentX: x.sCentX, sCentY: x.sCentY, tCent: x.tCent, tCentProj: x.tCentProj, tValid: x.tValid,
		scratchPool: x.scratchPool,
	}}
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

// gatherLive makes x's rows the live rows of src as src's header sees
// them: base rows minus tombstones in storage order, then live inserts
// in append order, each in its group's cell. It fills the columns, the
// arenas, the cells and the anchor rows (an insert's the sentinel, which
// derive assigns), and returns views of the rows' vectors for derive to
// write the vector arena from.
func (x *Index) gatherLive(src *Index) [][]float32 {
	v, tombs, n := &src.dv, src.deltaTombs(), src.live
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
		if idx := uint32(i); !tombs.get(idx) {
			o := src.row(idx)
			keep(&o, src.cells[i], src.projAt(idx), src.anchors.id[i], src.anchors.dist[i])
		}
	}
	cells := make([]uint32, v.n)
	for _, g := range v.groups {
		for pos := g.first; pos < uint32(v.n); pos = v.log.next[pos].Load() {
			cells[pos] = uint32(src.cell(g.s, g.t))
		}
	}
	for pos := range v.n {
		if p := uint32(pos); !v.dead(p) {
			keep(&v.log.objs[pos], cells[pos], v.log.projRow(p), anchorSentinel, 0)
		}
	}
	x.anchors = aa
	return vecs
}

// slotTable maps overlay IDs to log slots: an open-addressed table of
// atomic words, the key in the high half and slot+1 in the low (0: an
// empty entry; all ones: a key with no slot). Its one writer sets entries
// in place and replaces a table past half full by a copy twice the size;
// readers probe without a lock.
type slotTable struct {
	e    []atomic.Uint64
	keys int // writer-only
}

const slotNone = 1<<32 - 1 // the low half of a key with no slot

// probe returns the entry of key, or the empty entry where it would go.
func (t *slotTable) probe(key uint32) int {
	mask := len(t.e) - 1
	for i := int(key*0x9E3779B1) & mask; ; i = (i + 1) & mask {
		if w := t.e[i].Load(); uint32(w) == 0 || uint32(w>>32) == key {
			return i
		}
	}
}

// get returns key's slot, or noSlot.
func (t *slotTable) get(key uint32) uint32 {
	if lo := uint32(t.e[t.probe(key)].Load()); lo != 0 && lo != slotNone {
		return lo - 1
	}
	return noSlot
}

// set makes slot (noSlot: none) key's entry, and returns the table that
// replaced t when t had to grow (else nil).
func (t *slotTable) set(key, slot uint32) *slotTable {
	i := t.probe(key)
	if uint32(t.e[i].Load()) == 0 {
		if 2*(t.keys+1) > len(t.e) {
			nt := t.grown(2 * len(t.e))
			nt.set(key, slot)
			return nt
		}
		t.keys++
	}
	lo := uint64(slotNone)
	if slot != noSlot {
		lo = uint64(slot) + 1
	}
	t.e[i].Store(uint64(key)<<32 | lo)
	return nil
}

// grown returns a private copy of t with size entries.
func (t *slotTable) grown(size int) *slotTable {
	nt := &slotTable{e: make([]atomic.Uint64, size), keys: t.keys}
	for i := range t.e {
		if w := t.e[i].Load(); uint32(w) != 0 {
			nt.e[nt.probe(uint32(w>>32))].Store(w)
		}
	}
	return nt
}
