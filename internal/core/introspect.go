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
			Size:               len(c.members),
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

// UnanchoredRows counts the live objects the anchor bound cannot prune:
// base rows inserted since the last Build/Rebuild/Load plus the write
// overlay's live inserts. A rebuild anchors them all: where DriftRatio
// says the clustering no longer fits the data, this says how many rows
// scan without their cheapest filter. Always 0 where anchors do not apply.
// One pass over the id bytes: meant for /stats and scrapes, not per query.
func (x *Index) UnanchoredRows() int {
	aa := x.anchors
	if len(aa.set.pts) == 0 {
		return 0
	}
	n := x.DeltaLive()
	tombs := x.deltaTombs()
	for i, id := range aa.id {
		if id == anchorSentinel && !x.deleted.get(uint32(i)) && (tombs == nil || !tombs.get(uint32(i))) {
			n++
		}
	}
	return n
}

// ForEachLive calls fn for every live (non-deleted) object: the base
// objects in storage order minus deletions and overlay tombstones, then
// the overlay's live inserts in append order.
func (x *Index) ForEachLive(fn func(o *dataset.Object)) {
	tombs := x.deltaTombs()
	for i := range x.objects {
		if x.deleted.get(uint32(i)) {
			continue
		}
		if tombs != nil && tombs.get(uint32(i)) {
			continue
		}
		fn(&x.objects[i])
	}
	x.forEachDeltaLive(fn)
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
	idx, ok := x.idToIdx[id]
	if !ok {
		return 0, false
	}
	return x.space.SemanticProjVec(qProj, x.projAt(idx)), true
}

// BuildTimings records where index-construction time went (Fig. 15).
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
	// Route covers training the learned cluster router (self-query
	// labeling plus the gradient-descent fit).
	Route time.Duration
}

// Total returns the summed construction time.
func (t BuildTimings) Total() time.Duration {
	return t.Spatial + t.PCA + t.Semantic + t.Hybrid + t.Route
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
