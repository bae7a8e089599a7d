package core

// Copy-on-write cloning (the engine behind the RCU-style snapshot
// publication in the public ShardedIndex): CloneForWrite produces a
// new Index value that SHARES every structure queries read but writers
// never mutate in place — the vector/projection arenas, the per-row
// columns, the centroid tables, the cell column and the hybrid clusters
// themselves — and COPIES only the small mutable metadata a maintenance
// operation may write into (radii, the semantic side counts, the cluster
// directory and the deleted bitmap).
//
// The safety argument has two halves:
//
//   - Interior writes (slots readers of the parent can see) only ever
//     happen to structures the clone owns: the eager copies below, plus
//     lazily-owned pieces (cowHybrid, the ID table's buckets) that
//     mutations acquire right before writing. No side cluster keeps a
//     member list, so a delete writes no per-side structure but its
//     count.
//   - Append-only growth (the columns, deleted, the cell column, the
//     arenas) may land in backing arrays shared with the parent, but
//     always at offsets >= the parent's length.
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
	// ownedHybrids holds the hybrid clusters this clone has already
	// replaced with private copies; mutations may write them in place.
	ownedHybrids map[*hybrid]bool
}

// CloneForWrite returns a write-isolated copy of the index: applying
// Insert/Delete/Update to the clone never mutates state visible through
// x, so readers may keep using x (lock-free) while the clone is
// prepared and then published in its place. The cost is O(n) for the
// deleted bitmap (one bit per row) plus O(Ks·Kt) radius, count and
// directory copies — the arenas, columns, centroids and per-cluster
// arrays are shared until a mutation actually touches them, and so are
// the ID table's buckets, which a write copies one at a time.
func (x *Index) CloneForWrite() *Index {
	nx := new(Index)
	*nx = *x

	// The struct copy above would share a write overlay's pointer; the
	// eager clone mutates the base structures directly, so it starts
	// flat. Callers folding an overlay replay it themselves (Compact).
	nx.delta = nil
	nx.deleted = x.deleted.clone()
	ids := *x.idIdx
	ids.owned = 0
	nx.idIdx = &ids
	nx.sRad = append([]float64(nil), x.sRad...)
	nx.tRad = append([]float64(nil), x.tRad...)
	nx.tRadProj = append([]float64(nil), x.tRadProj...)
	nx.tCount = append([]int32(nil), x.tCount...)
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

// cowHybrid returns a hybrid cluster safe to mutate in place: c itself
// outside COW mode (or when this clone already owns it), otherwise a
// private copy spliced into the clone's cluster directory in c's stead.
// The lists are copied with one slot of headroom (the common mutation is
// a single insert); elems and the scan block are left shared because
// every mutation rebuilds them from the lists anyway.
func (x *Index) cowHybrid(c *hybrid) *hybrid {
	if x.cow == nil || x.cow.ownedHybrids[c] {
		return c
	}
	nc := &hybrid{
		s:        c.s,
		t:        c.t,
		members:  append(make([]uint32, 0, len(c.members)+1), c.members...),
		dt:       append(make([]float64, 0, len(c.dt)+1), c.dt...),
		byDt:     append(make([]uint32, 0, len(c.byDt)+1), c.byDt...),
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
