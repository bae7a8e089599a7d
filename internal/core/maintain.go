package core

import (
	"fmt"

	"repro/internal/dataset"
)

// Insert adds a new object to the index incrementally (§6.2): the object
// joins the nearest spatial and nearest semantic cluster, radii expand if
// needed, and only the affected hybrid cluster's array is rebuilt — the
// clustering itself is untouched.
func (x *Index) Insert(o dataset.Object) error {
	if x.delta != nil {
		return x.deltaInsert(o)
	}
	if prev, ok := x.idToIdx[o.ID]; ok && !x.deleted.get(prev) {
		return fmt.Errorf("core: object ID %d already present", o.ID)
	}
	if len(o.Vec) != x.pcaModel.N() {
		return fmt.Errorf("core: vector dim %d, index expects %d", len(o.Vec), x.pcaModel.N())
	}
	idx := uint32(len(x.objects))
	x.objects = append(x.objects, o)
	x.deleted = x.deleted.grown(len(x.objects))
	x.appendArenaRows(idx)
	x.idToIdx[o.ID] = idx

	// Nearest spatial cluster by location.
	s := 0
	bestS := x.spatialToCent(idx, 0)
	for c := 1; c < len(x.sCentX); c++ {
		if d := x.spatialToCent(idx, c); d < bestS {
			s, bestS = c, d
		}
	}
	// Nearest semantic cluster in the projected space (the space the
	// semantic clustering was fit in). Clusters that never received a
	// member have meaningless centroids and are skipped.
	t, bestT := -1, 0.0
	for c := 0; c < len(x.tCentProj); c++ {
		if len(x.tMembers[c]) == 0 {
			continue
		}
		if d := x.projToCent(idx, c); t < 0 || d < bestT {
			t, bestT = c, d
		}
	}
	if t < 0 {
		// Every semantic cluster is currently empty (the whole dataset
		// was deleted). Fall back to the nearest cluster whose centroid
		// is valid — one that had members at build time — never to an
		// arbitrary cluster whose centroid may be a meaningless zero
		// vector far from any data.
		for c := 0; c < len(x.tCentProj); c++ {
			if !x.tValid[c] {
				continue
			}
			if d := x.projToCent(idx, c); t < 0 || d < bestT {
				t, bestT = c, d
			}
		}
	}
	if t < 0 {
		t, bestT = 0, x.projToCent(idx, 0) // unreachable after Build: ≥1 cluster is always valid
	}
	x.sAssign = append(x.sAssign, s)
	x.tAssign = append(x.tAssign, t)
	x.sMembers[s] = append(x.sMembers[s], idx)
	x.tMembers[t] = append(x.tMembers[t], idx)

	// Expand radii where the newcomer falls outside (§6.2). Only radii
	// ever change after build — the centroids (tCent, tCentProj, sCent*)
	// are immutable until the next Build/Rebuild. The lazy cluster
	// ordering of Search depends on that: its projected weak bound is
	// sound only while tCentProj[t] stays the projection of tCent[t]
	// (see fillProjLowerBounds), so any future centroid maintenance must
	// recompute both representations together. CheckInvariants asserts
	// both the pairing and the bound's soundness.
	if bestS > x.sRad[s] {
		x.sRad[s] = bestS
	}
	if d := x.semanticToCent(idx, t); d > x.tRad[t] {
		x.tRad[t] = d
	}
	if bestT > x.tRadProj[t] {
		x.tRadProj[t] = bestT
	}
	// Drift signal: compare against the build-time balls.
	x.insertsSinceBuild++
	if bestS > x.builtSRad[s] || bestT > x.builtTRadProj[t] {
		x.radiusDrifts++
	}

	c := x.addToHybrid(idx)
	c.elems = buildElems(c.members)
	x.fillClusterBlock(c)
	x.live++
	x.UpdatesSinceBuild++
	return nil
}

// DriftRatio reports the fraction of post-build inserts that landed
// outside the build-time ball of their nearest clusters — a cheap signal
// that the incoming data no longer follows the distribution the clusters
// were fitted on. Values near zero mean the incremental path of §6.2 is
// healthy; sustained high values suggest calling Rebuild. Returns 0
// before any insert.
func (x *Index) DriftRatio() float64 {
	if x.insertsSinceBuild == 0 {
		return 0
	}
	return float64(x.radiusDrifts) / float64(x.insertsSinceBuild)
}

// Delete removes the object with the given ID (§6.2). If the object
// determined one of its clusters' radii, the radius is recomputed from
// the remaining members.
func (x *Index) Delete(id uint32) error {
	if x.delta != nil {
		return x.deltaDelete(id)
	}
	idx, ok := x.idToIdx[id]
	if !ok || x.deleted.get(idx) {
		return fmt.Errorf("core: object ID %d not present", id)
	}
	x.deleted.set(idx)
	delete(x.idToIdx, id)
	x.live--
	x.UpdatesSinceBuild++

	s, t := x.sAssign[idx], x.tAssign[idx]
	x.sMembers[s] = x.removeIdxCOW(x.sMembers[s], idx)
	x.tMembers[t] = x.removeIdxCOW(x.tMembers[t], idx)

	// Remove from the hybrid cluster and rebuild its array.
	c := x.cowHybrid(x.grid[x.cell(s, t)])
	for i := range c.members {
		if c.members[i].idx == idx {
			c.members[i] = c.members[len(c.members)-1]
			c.members = c.members[:len(c.members)-1]
			break
		}
	}
	if len(c.members) == 0 {
		x.grid[x.cell(s, t)] = nil
		for i, cc := range x.clusters {
			if cc == c {
				x.clusters[i] = x.clusters[len(x.clusters)-1]
				x.clusters = x.clusters[:len(x.clusters)-1]
				break
			}
		}
	} else {
		c.elems = buildElems(c.members)
		x.fillClusterBlock(c)
	}

	// Shrink radii when the deleted object was the farthest member (the
	// "infrequent case" of §6.2).
	if x.spatialToCent(idx, s) >= x.sRad[s] {
		x.sRad[s] = 0
		for _, mi := range x.sMembers[s] {
			if d := x.spatialToCent(mi, s); d > x.sRad[s] {
				x.sRad[s] = d
			}
		}
	}
	if x.semanticToCent(idx, t) >= x.tRad[t] {
		x.tRad[t] = 0
		for _, mi := range x.tMembers[t] {
			if d := x.semanticToCent(mi, t); d > x.tRad[t] {
				x.tRad[t] = d
			}
		}
	}
	if x.projToCent(idx, t) >= x.tRadProj[t] {
		x.tRadProj[t] = 0
		for _, mi := range x.tMembers[t] {
			if d := x.projToCent(mi, t); d > x.tRadProj[t] {
				x.tRadProj[t] = d
			}
		}
	}
	return nil
}

// Update replaces the stored object with o's ID by o — a deletion
// followed by an insertion, as the paper defines updates (§6.2).
func (x *Index) Update(o dataset.Object) error {
	if err := x.Delete(o.ID); err != nil {
		return fmt.Errorf("core: update: %w", err)
	}
	if err := x.Insert(o); err != nil {
		return fmt.Errorf("core: update: %w", err)
	}
	return nil
}

// Rebuild reconstructs the index from scratch over the live objects —
// the remedy §6.2 prescribes after the data distribution has drifted.
// The rebuild happens in place (x's value is replaced) and refreshes
// the shared metric space's projected normalizer; it must not run
// concurrently with readers — the snapshot path uses RebuildFresh.
func (x *Index) Rebuild() error {
	ds := &dataset.Dataset{Objects: x.collectLive(), Dim: x.pcaModel.N()}
	fresh, err := Build(ds, x.space, x.cfg)
	if err != nil {
		return fmt.Errorf("core: rebuild: %w", err)
	}
	*x = *fresh
	return nil
}

// RebuildFresh builds a brand-new index over the live objects without
// mutating x in any way: the non-blocking rebuild path, where readers
// keep querying x while the replacement is constructed off to the side
// and published afterwards. The fresh index gets its own copy of the
// metric space, because Build recomputes the projected-space normalizer
// (DtProjMax) and concurrent readers of x still depend on the old one.
func (x *Index) RebuildFresh() (*Index, error) {
	ds := &dataset.Dataset{Objects: x.collectLive(), Dim: x.pcaModel.N()}
	spaceCopy := *x.space
	fresh, err := Build(ds, &spaceCopy, x.cfg)
	if err != nil {
		return nil, fmt.Errorf("core: rebuild: %w", err)
	}
	return fresh, nil
}

// collectLive snapshots the live objects in storage order: the base
// objects minus deletions and overlay tombstones, then the overlay's
// live inserts in append order.
func (x *Index) collectLive() []dataset.Object {
	liveObjs := make([]dataset.Object, 0, x.live)
	d := x.delta
	for i := range x.objects {
		if x.deleted.get(uint32(i)) {
			continue
		}
		if d != nil && d.tombs.get(uint32(i)) {
			continue
		}
		liveObjs = append(liveObjs, x.objects[i])
	}
	if d != nil {
		for pos := range d.objs {
			if !d.dead.get(uint32(pos)) {
				liveObjs = append(liveObjs, d.objs[pos])
			}
		}
	}
	return liveObjs
}

// appendArenaRows copies the vector of the just-appended object into a
// new vecArena row, projects it into a new projArena row, appends its
// location to the coordinate arena and a sentinel row to the anchor
// arena, and repoints the stored object's Vec at the arena. When the vector arena must
// grow, every stored view is repointed at the new backing array —
// amortized O(1) per insert thanks to the doubling growth.
func (x *Index) appendArenaRows(idx uint32) {
	src := x.objects[idx].Vec
	if need := len(x.vecArena) + x.dim; need > cap(x.vecArena) {
		na := make([]float32, len(x.vecArena), arenaCap(need, cap(x.vecArena)))
		copy(na, x.vecArena)
		x.vecArena = na
		// Repointing rewrites every stored Vec view — an interior write,
		// so a COW clone must own the objects slice first. (The append
		// path below needs no ownership: it only writes past the
		// parent's length.)
		x.ensureOwnedObjects()
		for i := uint32(0); i < idx; i++ {
			x.objects[i].Vec = x.vecAt(i)
		}
	}
	x.vecArena = append(x.vecArena, src...)
	x.objects[idx].Vec = x.vecAt(idx)

	if need := len(x.projArena) + x.m; need > cap(x.projArena) {
		na := make([]float32, len(x.projArena), arenaCap(need, cap(x.projArena)))
		copy(na, x.projArena)
		x.projArena = na
	}
	x.projArena = x.projArena[:len(x.projArena)+x.m]
	x.pcaModel.TransformInto(x.projAt(idx), x.objects[idx].Vec)

	x.xArena = append(x.xArena, x.objects[idx].X)
	x.yArena = append(x.yArena, x.objects[idx].Y)

	x.appendAnchorRow()
}

// arenaCap doubles the arena capacity until it covers need.
func arenaCap(need, old int) int {
	c := old * 2
	if c < need {
		c = need
	}
	return c
}

func removeIdx(list []uint32, idx uint32) []uint32 {
	for i, v := range list {
		if v == idx {
			list[i] = list[len(list)-1]
			return list[:len(list)-1]
		}
	}
	return list
}
