package core

import "repro/internal/dataset"

// Copy-on-write cloning (the engine behind the RCU-style snapshot
// publication in the public ShardedIndex): CloneForWrite produces a
// new Index value that SHARES every structure queries read but writers
// never mutate in place — the vector/projection arenas, the object
// slice, the centroid tables, the cluster assignments and the hybrid
// clusters themselves — and COPIES only the small mutable metadata a
// maintenance operation may write into (radii, membership-list headers,
// the cluster directory, the deleted bitmap and the ID map).
//
// The safety argument has two halves:
//
//   - Interior writes (slots readers of the parent can see) only ever
//     happen to structures the clone owns: the eager copies below, plus
//     lazily-owned pieces (cowHybrid, ensureOwnedObjects, removeIdxCOW)
//     that mutations acquire right before writing.
//   - Append-only growth (objects, deleted, sAssign/tAssign, the
//     arenas, side-membership lists) may land in backing arrays shared
//     with the parent, but always at offsets >= the parent's length.
//     Readers never index past their own snapshot's length, and writers
//     are serialized, so a slot is written at most once before the
//     snapshot containing it is published (an atomic-pointer store,
//     which orders those writes before any reader's loads).
//
// A clone must be built, mutated and published by one goroutine at a
// time (every ShardedIndex shard serializes its writers on a mutex);
// published snapshots must never be mutated again except by cloning
// them anew.
type cowState struct {
	// ownsObjects marks that the objects slice has been copied, so
	// interior writes (arena-growth repointing) are safe.
	ownsObjects bool
	// ownedHybrids holds the hybrid clusters this clone has already
	// replaced with private copies; mutations may write them in place.
	ownedHybrids map[*hybrid]bool
}

// CloneForWrite returns a write-isolated copy of the index: applying
// Insert/Delete/Update to the clone never mutates state visible through
// x, so readers may keep using x (lock-free) while the clone is
// prepared and then published in its place. The cost is O(n) for the
// deleted bitmap and the ID map plus O(Ks·Kt) slice-header
// and directory copies — the arenas, objects, centroids and per-cluster
// arrays are shared until a mutation actually touches them.
func (x *Index) CloneForWrite() *Index {
	nx := new(Index)
	*nx = *x

	// The struct copy above would share a write overlay's pointer; the
	// eager clone mutates the base structures directly, so it starts
	// flat. Callers folding an overlay replay it themselves (Compact).
	nx.delta = nil
	nx.deleted = x.deleted.clone()
	nx.idToIdx = make(map[uint32]uint32, len(x.idToIdx))
	for id, i := range x.idToIdx {
		nx.idToIdx[id] = i
	}
	nx.sRad = append([]float64(nil), x.sRad...)
	nx.tRad = append([]float64(nil), x.tRad...)
	nx.tRadProj = append([]float64(nil), x.tRadProj...)
	nx.sMembers = append([][]uint32(nil), x.sMembers...)
	nx.tMembers = append([][]uint32(nil), x.tMembers...)
	nx.clusters = append([]*hybrid(nil), x.clusters...)
	nx.grid = append([]*hybrid(nil), x.grid...)

	// The anchor arena struct is behind a pointer, so its slice headers
	// are copied explicitly: appendAnchorRow on the clone then grows the
	// clone's own headers (past the parent's length, or into reallocated
	// backing) instead of mutating state the parent's readers see.
	aa := *x.anchors
	nx.anchors = &aa

	nx.cow = &cowState{ownedHybrids: make(map[*hybrid]bool)}
	return nx
}

// ensureOwnedObjects copies the objects slice before the first interior
// write (arena regrowth repoints every stored Vec view). Append-only
// writes don't need it: they land past the parent's length.
func (x *Index) ensureOwnedObjects() {
	if x.cow == nil || x.cow.ownsObjects {
		return
	}
	x.objects = append([]dataset.Object(nil), x.objects...)
	x.cow.ownsObjects = true
}

// cowHybrid returns a hybrid cluster safe to mutate in place: c itself
// outside COW mode (or when this clone already owns it), otherwise a
// private copy spliced into the clone's cluster directory in c's stead.
// The members slice is copied with one slot of headroom (the common
// mutation is a single insert); elems and the scan block are left shared
// because every mutation rebuilds them from the members anyway.
func (x *Index) cowHybrid(c *hybrid) *hybrid {
	if x.cow == nil || x.cow.ownedHybrids[c] {
		return c
	}
	nc := &hybrid{
		s:        c.s,
		t:        c.t,
		members:  append(make([]member, 0, len(c.members)+1), c.members...),
		elems:    c.elems,
		base:     c.base,
		gathered: c.gathered,
	}
	x.grid[x.cell(c.s, c.t)] = nc
	for i, cc := range x.clusters {
		if cc == c {
			x.clusters[i] = nc
			break
		}
	}
	x.cow.ownedHybrids[nc] = true
	return nc
}

// markOwnedHybrid registers a hybrid created by this clone so later
// mutations in the same write batch skip the copy.
func (x *Index) markOwnedHybrid(c *hybrid) {
	if x.cow != nil {
		x.cow.ownedHybrids[c] = true
	}
}

// removeIdxCOW removes idx from a membership list. Outside COW mode it
// swap-removes in place; in COW mode it builds a fresh slice, because
// both the interior overwrite and the truncation-then-reappend pattern
// would corrupt the parent's view of a shared backing array.
func (x *Index) removeIdxCOW(list []uint32, idx uint32) []uint32 {
	if x.cow == nil {
		return removeIdx(list, idx)
	}
	for i, v := range list {
		if v != idx {
			continue
		}
		out := make([]uint32, len(list)-1)
		copy(out, list[:i])
		copy(out[i:], list[i+1:])
		return out
	}
	return list
}
