package core

import (
	"fmt"

	"repro/internal/dataset"
)

// Insert adds a new object (§6.2): it joins the nearest spatial and
// nearest semantic cluster (nearestSides) in the index's write overlay
// (see overlay.go): the append log and the group of its side pair, whose
// covering radii grow to take it. No base structure is written; Compact
// folds the overlay into a fresh base, and the clustering itself is
// untouched until a rebuild.
func (x *Index) Insert(o dataset.Object) error {
	d := x.writeDelta()
	v := &x.dv
	if _, ok := d.slotAt(v, o.ID); ok {
		return fmt.Errorf("core: object ID %d already present", o.ID)
	}
	if prev, ok := x.idIdx.get(o.ID); ok && !x.deltaTombs().get(prev) {
		return fmt.Errorf("core: object ID %d already present", o.ID)
	}
	if len(o.Vec) != x.pcaModel.N() {
		return fmt.Errorf("core: vector dim %d, index expects %d", len(o.Vec), x.pcaModel.N())
	}
	prevSlot := d.ids.Load().get(o.ID)
	pos := d.appendLog(v, o)
	proj := v.log.projRow(pos)
	x.pcaModel.TransformInto(proj, o.Vec)
	s, bestS, t, bestT := x.nearestSides(o.X, o.Y, proj)

	// Group membership and covering radii (original-space semantic
	// distance, matching the bound scanDelta applies).
	d.join(v, pos, prevSlot, s, t, bestS, x.space.SemanticVec(o.Vec, x.tCent[t]))
	d.setSlot(o.ID, pos)

	// Drift signal: compare against the build-time balls. The counters
	// are scalars of the Index value, private to its header.
	x.insertsSinceBuild++
	if bestS > x.builtSRad[s] || bestT > x.builtTRadProj[t] {
		x.radiusDrifts++
	}
	v.liveCount++
	v.ops++
	x.live++
	x.UpdatesSinceBuild++
	d.endWrite(v)
	return nil
}

// Delete removes the object with the given ID (§6.2) in the write
// overlay: an overlay insert's log slot is stamped dead, a base object
// gets a stamped tombstone; the base's ID table, clusters and radii stay
// untouched until Compact.
func (x *Index) Delete(id uint32) error {
	d := x.writeDelta()
	v := &x.dv
	seq := uint32(v.ops + 1)
	if pos, ok := d.slotAt(v, id); ok {
		v.log.dead[pos].Store(seq)
		v.liveCount--
	} else {
		idx, ok := x.idIdx.get(id)
		if !ok || x.deltaTombs().get(idx) {
			return fmt.Errorf("core: object ID %d not present", id)
		}
		v.tomb(x.rows(), idx, seq)
	}
	v.ops++
	x.live--
	x.UpdatesSinceBuild++
	d.endWrite(v)
	return nil
}

// nearestSides is the one rule that places a new row: its nearest
// spatial centroid, and — in the projected space, where the semantic
// clustering was fit — its nearest semantic centroid among those valid
// at build time (tValid). A side that never had a member has a
// meaningless centroid; one whose rows were all deleted keeps a
// meaningful one and may take the row. Only a model with no valid
// semantic side, which Build never makes, puts the row on side 0. It
// returns the sides with the row's spatial and projected distances to
// them.
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
