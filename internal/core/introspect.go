package core

import (
	"time"

	"repro/internal/dataset"
	"repro/internal/metric"
)

// ClusterInfo describes one hybrid cluster for analysis (Fig. 4, Fig. 12
// diagnostics). Radii are normalized distances.
type ClusterInfo struct {
	// Size is the number of member objects.
	Size int
	// SpatialRadius is R^s of the cluster's spatial side.
	SpatialRadius float64
	// SemanticRadius is R^t in the original n-dimensional space.
	SemanticRadius float64
	// SemanticRadiusProj is R^t in the projected m-dimensional space
	// (the CSSIA representation).
	SemanticRadiusProj float64
}

// ClusterStats returns per-hybrid-cluster descriptors.
func (x *Index) ClusterStats() []ClusterInfo {
	out := make([]ClusterInfo, len(x.clusters))
	for i, c := range x.clusters {
		out[i] = ClusterInfo{
			Size:               len(c.elems),
			SpatialRadius:      x.sRad[c.s],
			SemanticRadius:     x.tRad[c.t],
			SemanticRadiusProj: x.tRadProj[c.t],
		}
	}
	return out
}

// EnclosureRates returns the fraction of hybrid clusters that enclose q
// under the original-space semantic representation (CSSI's view) and
// under the projected representation (CSSIA's view) — the statistic of
// Fig. 4b. A cluster encloses q when q lies inside both its spatial and
// its semantic ball.
func (x *Index) EnclosureRates(q *dataset.Object) (orig, proj float64) {
	if len(x.clusters) == 0 {
		return 0, 0
	}
	qProj := x.pcaModel.Transform(q.Vec)
	var nOrig, nProj int
	for _, c := range x.clusters {
		dsq := x.space.SpatialXY(q.X, q.Y, x.sCentX[c.s], x.sCentY[c.s])
		if dsq < x.sRad[c.s] {
			if x.space.SemanticVec(q.Vec, x.tCent[c.t]) < x.tRad[c.t] {
				nOrig++
			}
			if x.space.SemanticProjVec(qProj, x.tCentProj[c.t]) < x.tRadProj[c.t] {
				nProj++
			}
		}
	}
	total := float64(len(x.clusters))
	return float64(nOrig) / total, float64(nProj) / total
}

// AnchorSet returns the anchor set the index's rows are anchored to. A
// write and a compaction keep it; Build fits one unless
// BuildWithAnchors hands it one, and RebuildFresh and Load fit their
// own.
func (x *Index) AnchorSet() *Anchors { return x.anchors.set }

// UnanchoredRows counts the live objects the anchor bound cannot prune:
// the write overlay's live inserts, since every base row is anchored.
// The next compaction or rebuild anchors them all: where DriftRatio says
// the clustering no longer fits the data, this says how many rows scan
// without their cheapest filter. Always 0 where anchors do not apply.
func (x *Index) UnanchoredRows() int {
	if len(x.anchors.set.pts) == 0 {
		return 0
	}
	return x.DeltaLive()
}

// ForEachLive calls fn for every live object: the base objects in
// storage order minus overlay tombstones, then
// the overlay's live inserts in append order. The object is valid for
// the call only and must not be written: Vec views the index's storage.
func (x *Index) ForEachLive(fn func(o *dataset.Object)) {
	tombs := x.deltaTombs()
	var o dataset.Object
	for i := range x.ids {
		if tombs.get(uint32(i)) {
			continue
		}
		o = x.row(uint32(i))
		fn(&o)
	}
	for pos := range x.dv.n {
		if !x.dv.dead(uint32(pos)) {
			fn(&x.dv.log.objs[pos])
		}
	}
}

// ProjectQuery maps a semantic vector into the index's projected space
// (for analysis such as Fig. 3's projected distance histogram).
func (x *Index) ProjectQuery(v []float32) []float32 { return x.pcaModel.Transform(v) }

// ProjectedDistance returns the normalized projected-space semantic
// distance between a projected query and the stored projection of the
// base object with the given ID; ok is false when the base holds no such
// object. Objects are named by ID because storage positions are
// cluster-major, not dataset positions.
func (x *Index) ProjectedDistance(qProj []float32, id uint32) (d float64, ok bool) {
	idx, ok := x.idIdx.get(id)
	if !ok {
		return 0, false
	}
	return x.space.SemanticProjVec(qProj, x.projAt(idx)), true
}

// BuildTimings records where index-construction time went (Fig. 15).
// Above Workers 1 the spatial K-Means runs beside the PCA fit and
// projection, so Spatial and PCA overlap and the phases add up to more
// than the build's wall time.
type BuildTimings struct {
	// Spatial covers the spatial K-Means (fit + assignment).
	Spatial time.Duration
	// PCA covers fitting the projection and transforming all vectors.
	PCA time.Duration
	// Semantic covers the semantic K-Means on the projections.
	Semantic time.Duration
	// Hybrid covers representation computation, hybrid-cluster formation
	// and array building.
	Hybrid time.Duration
	// Route is always zero: kept for bench/ until the benchmark-only
	// change drops the core.build_route_s row.
	Route time.Duration
}

// Total returns the summed phase times (more than the wall time when
// Spatial and PCA overlapped).
func (t BuildTimings) Total() time.Duration {
	return t.Spatial + t.PCA + t.Semantic + t.Hybrid
}

// BuildTimed is Build with a phase-time breakdown.
func BuildTimed(ds *dataset.Dataset, space *metric.Space, cfg Config) (*Index, BuildTimings, error) {
	var tm BuildTimings
	start := time.Now()
	x, err := buildInstrumented(ds, space, cfg, nil, &tm)
	if err != nil {
		return nil, tm, err
	}
	// Attribute any unmeasured remainder (bookkeeping) to Hybrid.
	if rest := time.Since(start) - tm.Total(); rest > 0 {
		tm.Hybrid += rest
	}
	return x, tm, nil
}
