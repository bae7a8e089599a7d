package core

import (
	"fmt"

	"repro/internal/dataset"
)

// Insert adds a new object to the index incrementally (§6.2): the object
// joins the nearest spatial and nearest semantic cluster, radii expand if
// needed, and only the affected hybrid cluster's array is rebuilt — one
// merge of its two maintained lists — the clustering itself is untouched.
func (x *Index) Insert(o dataset.Object) error {
	if x.delta != nil {
		return x.deltaInsert(o)
	}
	if len(o.Vec) != x.pcaModel.N() {
		return fmt.Errorf("core: vector dim %d, index expects %d", len(o.Vec), x.pcaModel.N())
	}
	idx := uint32(x.rows())
	if !x.idIdx.put(o.ID, idx) {
		return fmt.Errorf("core: object ID %d already present", o.ID)
	}
	x.ids = append(x.ids, o.ID)
	x.texts = append(x.texts, o.Text)
	x.topics = append(x.topics, o.Topic)
	x.deleted = x.deleted.grown(x.rows())
	x.appendArenaRows(idx, &o)
	s, bestS, t, bestT := x.nearestSides(o.X, o.Y, x.projAt(idx))
	x.cells = append(x.cells, uint32(x.cell(s, t)))
	x.tCount[t]++

	// Expand radii where the newcomer falls outside (§6.2). Only radii
	// ever change after build — the centroids (tCent, tCentProj, sCent*)
	// are immutable until the next Build/Rebuild. The lazy cluster
	// ordering of Search depends on that: its projected weak bound is
	// sound only while tCentProj[t] stays the projection of tCent[t]
	// (see fillProjLowerBounds), so any future centroid maintenance must
	// recompute both representations together. CheckInvariants asserts
	// both the pairing and the bound's soundness.
	dt := x.semanticToCent(idx, t)
	if bestS > x.sRad[s] {
		x.sRad[s] = bestS
	}
	if dt > x.tRad[t] {
		x.tRad[t] = dt
	}
	if bestT > x.tRadProj[t] {
		x.tRadProj[t] = bestT
	}
	// Drift signal: compare against the build-time balls.
	x.insertsSinceBuild++
	if bestS > x.builtSRad[s] || bestT > x.builtTRadProj[t] {
		x.radiusDrifts++
	}

	c := x.addToHybrid(member{idx: idx, ds: bestS, dt: dt})
	c.mergeElems(x.dsOf(c))
	x.fillClusterBlock(c)
	x.live++
	x.UpdatesSinceBuild++
	return nil
}

// nearestSides is the one rule that places a new row, in place or in
// the write overlay: its nearest spatial centroid, and — in the
// projected space, where the semantic clustering was fit — its nearest
// semantic centroid among those valid at build time (tValid). A side
// that never had a member has a meaningless centroid; one whose rows
// were all deleted keeps a meaningful one and may take the row. Only a
// model with no valid semantic side, which Build never makes, puts the
// row on side 0. It returns the sides with the row's spatial and
// projected distances to them.
func (x *Index) nearestSides(px, py float64, proj []float32) (s int, ds float64, t int, dp float64) {
	ds = x.space.SpatialXY(px, py, x.sCentX[0], x.sCentY[0])
	for c := 1; c < len(x.sCentX); c++ {
		if d := x.space.SpatialXY(px, py, x.sCentX[c], x.sCentY[c]); d < ds {
			s, ds = c, d
		}
	}
	t = -1
	for c := range x.tCentProj {
		if !x.tValid[c] {
			continue
		}
		if d := x.space.SemanticProjVec(proj, x.tCentProj[c]); t < 0 || d < dp {
			t, dp = c, d
		}
	}
	if t < 0 {
		t, dp = 0, x.space.SemanticProjVec(proj, x.tCentProj[0])
	}
	return s, ds, t, dp
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
// the remaining members: the hybrid clusters of the grid's row s (for
// the spatial radius) or column t (for the semantic ones) partition the
// side's live rows. Each cluster's lists are sorted by descending
// distance, so the spatial radius reads one ds per cluster (its L_s
// head) and the semantic one one stored dt (its L_t head); only the
// projected radius, which no list orders, visits every member — an
// m-dimensional distance each.
func (x *Index) Delete(id uint32) error {
	if x.delta != nil {
		return x.deltaDelete(id)
	}
	idx, ok := x.idIdx.del(id)
	if !ok {
		return fmt.Errorf("core: object ID %d not present", id)
	}
	x.deleted.set(idx)
	x.live--
	x.UpdatesSinceBuild++

	cell := x.cells[idx]
	s, t := x.sides(cell)
	x.tCount[t]--

	// Remove from the hybrid cluster and rebuild its array.
	c := x.grid[cell]
	dt := c.removeMember(idx)
	if len(c.members) == 0 {
		x.grid[cell] = nil
		for i, cc := range x.clusters {
			if cc == c {
				x.clusters[i] = x.clusters[len(x.clusters)-1]
				x.clusters = x.clusters[:len(x.clusters)-1]
				break
			}
		}
	} else {
		c.mergeElems(x.dsOf(c))
		x.fillClusterBlock(c)
	}

	// Shrink radii when the deleted object was the farthest member (the
	// "infrequent case" of §6.2).
	ks, kt := len(x.sCentX), len(x.tCent)
	if x.spatialToCent(idx, s) >= x.sRad[s] {
		x.sRad[s] = 0
		for _, cc := range x.grid[s*kt : (s+1)*kt] {
			if cc != nil {
				x.sRad[s] = max(x.sRad[s], x.spatialToCent(cc.members[0], s))
			}
		}
	}
	if dt >= x.tRad[t] {
		x.tRad[t] = 0
		for ss := range ks {
			if cc := x.grid[x.cell(ss, t)]; cc != nil {
				x.tRad[t] = max(x.tRad[t], cc.dt[cc.byDt[0]])
			}
		}
	}
	if x.projToCent(idx, t) >= x.tRadProj[t] {
		x.tRadProj[t] = 0
		for ss := range ks {
			if cc := x.grid[x.cell(ss, t)]; cc != nil {
				for _, mi := range cc.members {
					x.tRadProj[t] = max(x.tRadProj[t], x.projToCent(mi, t))
				}
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

// RebuildFresh reconstructs the index from scratch over the live objects
// — the remedy §6.2 prescribes after the data distribution has drifted —
// as a brand-new index, without mutating x in any way: readers keep
// querying x while the replacement is constructed off to the side and
// published (or swapped in) afterwards. The fresh index gets its own
// copy of the metric space, because Build recomputes the projected-space
// normalizer (DtProjMax) and concurrent readers of x still depend on the
// old one.
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
	x.ForEachLive(func(o *dataset.Object) { liveObjs = append(liveObjs, *o) })
	return liveObjs
}

// appendArenaRows gives the object just appended to the columns at
// position idx its rows in the arenas: its vector copied into a new vecArena row and projected
// into a new projArena row, its location, and a sentinel anchor row. The
// vector arena grows by doubling, so the copy is amortized O(1) per
// insert.
func (x *Index) appendArenaRows(idx uint32, o *dataset.Object) {
	if need := len(x.vecArena) + x.dim; need > cap(x.vecArena) {
		na := make([]float32, len(x.vecArena), arenaCap(need, cap(x.vecArena)))
		copy(na, x.vecArena)
		x.vecArena = na
	}
	x.vecArena = append(x.vecArena, o.Vec...)

	if need := len(x.projArena) + x.m; need > cap(x.projArena) {
		na := make([]float32, len(x.projArena), arenaCap(need, cap(x.projArena)))
		copy(na, x.projArena)
		x.projArena = na
	}
	x.projArena = x.projArena[:len(x.projArena)+x.m]
	x.pcaModel.TransformInto(x.projAt(idx), o.Vec)

	x.xArena = append(x.xArena, o.X)
	x.yArena = append(x.yArena, o.Y)

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
