package core

import (
	"encoding/gob"
	"fmt"
	"io"

	"repro/internal/dataset"
	"repro/internal/metric"
	"repro/internal/pca"
	"repro/internal/route"
)

// Index persistence: Save writes everything needed to answer queries —
// the objects, the PCA model, both semantic cluster representations, the
// assignments and the hybrid-cluster membership — so Load restores a
// fully functional index without re-clustering. The per-cluster element
// arrays are cheap to rebuild and are therefore not serialized.

// gobMember mirrors member with exported fields.
type gobMember struct {
	Idx    uint32
	Ds, Dt float64
}

// gobHybrid mirrors hybrid with exported fields.
type gobHybrid struct {
	S, T    int
	Members []gobMember
}

// gobIndex is the serialized form of an Index. Since version 2 the
// embeddings and projections are stored as the two flat arenas (with
// their strides) instead of per-object vectors and per-row projection
// slices: Objects carry nil Vec on the wire and Load reslices them into
// the decoded vector arena. Version-1 files (per-object Vec plus the
// legacy Proj field) are still accepted — Load migrates them into
// arenas; gob ignores stream fields absent from this struct and leaves
// struct fields absent from the stream at their zero value, so both
// layouts decode through it — as do files that still carry the removed
// SQ8 arena (four Quant* fields here and its on/off flag in Cfg), whose
// fields are skipped.
type gobIndex struct {
	Version int
	Cfg     Config

	DsMax, DtMax, DtProjMax float64
	SemanticKind            metric.SemanticMetric

	Objects []dataset.Object
	Deleted []bool
	Live    int

	PCAModel *pca.Model

	Dim, M              int
	VecArena, ProjArena []float32

	// Proj is the legacy per-row projection layout of version-1 files.
	// Never written since version 2; read only by the v1 migration.
	Proj [][]float32

	SCentX, SCentY, SRad []float64
	SMembers             [][]uint32

	TCent     [][]float32
	TRad      []float64
	TCentProj [][]float32
	TRadProj  []float64
	TMembers  [][]uint32
	// TValid marks semantic clusters whose centroids were computed from
	// at least one member (see Index.tValid). Absent from files written
	// before it existed; Load then derives it from current membership.
	TValid             []bool
	SAssign, TAssign   []int
	Clusters           []gobHybrid
	UpdatesSinceBuild_ int

	// The learned cluster router (version 4): the logistic layer's
	// weights and the feature standardization. All empty when the saved
	// index had no trained router (too small, degenerate training set);
	// older files leave them at their gob zero values and Load retrains
	// transparently. RouteHasModel disambiguates "saved without a
	// router" from "pre-v4 file": a v4 file with it false loads with a
	// nil router instead of paying a pointless retrain.
	RouteHasModel         bool
	RouteBias             float64
	RouteW                []float64
	RouteMean, RouteScale []float64
}

const (
	persistVersionV1 = 1 // per-object vectors + [][]float32 projections
	persistVersionV2 = 2 // flat vector/projection arenas
	persistVersionV3 = 3 // v2 + an SQ8 arena no code reads any more (gob skips its fields)
	persistVersion   = 4 // v3 + the learned cluster-routing model
)

// Save writes the index (including its metric-space normalizers) to w.
func (x *Index) Save(w io.Writer) error {
	// The write overlay is a transient in-memory representation; the wire
	// format stays flat, so a snapshot carrying pending overlay writes is
	// folded before serializing.
	if x.delta != nil && x.delta.ops > 0 {
		nx, err := x.Compact()
		if err != nil {
			return fmt.Errorf("core: save: %w", err)
		}
		return nx.Save(w)
	}
	// Strip the per-object arena views from a copy of the objects slice
	// (never from the live one): the vectors travel once, in VecArena.
	objs := make([]dataset.Object, len(x.objects))
	copy(objs, x.objects)
	for i := range objs {
		objs[i].Vec = nil
	}
	g := gobIndex{
		Version:            persistVersion,
		Cfg:                x.cfg,
		DsMax:              x.space.DsMax,
		DtMax:              x.space.DtMax,
		DtProjMax:          x.space.DtProjMax,
		SemanticKind:       x.space.SemanticKind,
		Objects:            objs,
		Deleted:            x.deleted.bools(len(x.objects)),
		Live:               x.live,
		PCAModel:           x.pcaModel,
		Dim:                x.dim,
		M:                  x.m,
		VecArena:           x.vecArena,
		ProjArena:          x.projArena,
		SCentX:             x.sCentX,
		SCentY:             x.sCentY,
		SRad:               x.sRad,
		SMembers:           x.sMembers,
		TCent:              x.tCent,
		TRad:               x.tRad,
		TCentProj:          x.tCentProj,
		TRadProj:           x.tRadProj,
		TMembers:           x.tMembers,
		TValid:             x.tValid,
		SAssign:            x.sAssign,
		TAssign:            x.tAssign,
		UpdatesSinceBuild_: x.UpdatesSinceBuild,
	}
	if x.router != nil {
		g.RouteHasModel = true
		g.RouteBias = x.router.Bias
		g.RouteW = x.router.W
		g.RouteMean = x.router.Mean
		g.RouteScale = x.router.Scale
	}
	g.Clusters = make([]gobHybrid, len(x.clusters))
	for i, c := range x.clusters {
		gc := gobHybrid{S: c.s, T: c.t, Members: make([]gobMember, len(c.members))}
		for j, m := range c.members {
			gc.Members[j] = gobMember{Idx: m.idx, Ds: m.ds, Dt: m.dt}
		}
		g.Clusters[i] = gc
	}
	if err := gob.NewEncoder(w).Encode(&g); err != nil {
		return fmt.Errorf("core: save: %w", err)
	}
	return nil
}

// migrateV1 converts a decoded version-1 file — per-object vectors and
// per-row Proj slices, no arenas and no strides — into the version-2
// arena layout in place, after which the common load path applies
// unchanged. The float32 values are copied bit-for-bit, so a migrated
// index answers queries identically to one saved by the old code.
func migrateV1(g *gobIndex) error {
	if len(g.Proj) != len(g.Objects) {
		return fmt.Errorf("v1 file has %d projection rows for %d objects", len(g.Proj), len(g.Objects))
	}
	// Strides come from the stored data itself; the PCA model (always
	// present in v1 files, which were written only by Build) is the
	// fallback for the degenerate no-object case.
	if len(g.Objects) > 0 {
		g.Dim = len(g.Objects[0].Vec)
		g.M = len(g.Proj[0])
	} else if g.PCAModel != nil {
		g.Dim = g.PCAModel.N()
		g.M = g.PCAModel.M()
	}
	g.VecArena = make([]float32, len(g.Objects)*g.Dim)
	g.ProjArena = make([]float32, len(g.Objects)*g.M)
	for i := range g.Objects {
		if len(g.Objects[i].Vec) != g.Dim {
			return fmt.Errorf("v1 file: object %d has vector dim %d, want %d", i, len(g.Objects[i].Vec), g.Dim)
		}
		if len(g.Proj[i]) != g.M {
			return fmt.Errorf("v1 file: object %d has projection dim %d, want %d", i, len(g.Proj[i]), g.M)
		}
		copy(g.VecArena[i*g.Dim:(i+1)*g.Dim], g.Objects[i].Vec)
		copy(g.ProjArena[i*g.M:(i+1)*g.M], g.Proj[i])
		g.Objects[i].Vec = nil // repointed at the arena by the common path
	}
	g.Proj = nil
	return nil
}

// Load restores an index previously written by Save, together with its
// metric space. Both the current arena layout (version 2) and the legacy
// per-object layout (version 1) are accepted.
func Load(r io.Reader) (*Index, *metric.Space, error) {
	var g gobIndex
	if err := gob.NewDecoder(r).Decode(&g); err != nil {
		return nil, nil, fmt.Errorf("core: load: %w", err)
	}
	switch g.Version {
	case persistVersion, persistVersionV3, persistVersionV2:
	case persistVersionV1:
		if err := migrateV1(&g); err != nil {
			return nil, nil, fmt.Errorf("core: load: %w", err)
		}
	default:
		return nil, nil, fmt.Errorf("core: load: unsupported version %d", g.Version)
	}
	if g.Dim <= 0 || len(g.VecArena) != len(g.Objects)*g.Dim {
		return nil, nil, fmt.Errorf("core: load: vector arena length %d does not match %d objects of dim %d",
			len(g.VecArena), len(g.Objects), g.Dim)
	}
	if g.M <= 0 || len(g.ProjArena) != len(g.Objects)*g.M {
		return nil, nil, fmt.Errorf("core: load: projection arena length %d does not match %d objects of dim %d",
			len(g.ProjArena), len(g.Objects), g.M)
	}
	space := &metric.Space{DsMax: g.DsMax, DtMax: g.DtMax, DtProjMax: g.DtProjMax, SemanticKind: g.SemanticKind}
	x := &Index{
		cfg:               g.Cfg,
		space:             space,
		objects:           g.Objects,
		deleted:           bitsetFromBools(g.Deleted, len(g.Objects)),
		live:              g.Live,
		idToIdx:           make(map[uint32]uint32, g.Live),
		pcaModel:          g.PCAModel,
		dim:               g.Dim,
		m:                 g.M,
		vecArena:          g.VecArena,
		projArena:         g.ProjArena,
		scratchPool:       newScratchPool(),
		sCentX:            g.SCentX,
		sCentY:            g.SCentY,
		sRad:              g.SRad,
		sMembers:          g.SMembers,
		tCent:             g.TCent,
		tRad:              g.TRad,
		tCentProj:         g.TCentProj,
		tRadProj:          g.TRadProj,
		tMembers:          g.TMembers,
		tValid:            g.TValid,
		sAssign:           g.SAssign,
		tAssign:           g.TAssign,
		UpdatesSinceBuild: g.UpdatesSinceBuild_,
	}
	for i := range x.objects {
		x.objects[i].Vec = x.vecAt(uint32(i))
	}
	// The drift baseline restarts from the loaded radii.
	x.builtSRad = append([]float64(nil), x.sRad...)
	x.builtTRadProj = append([]float64(nil), x.tRadProj...)
	// Files written before TValid existed: approximate centroid validity
	// by current membership (only wrong for clusters emptied by deletes,
	// which then merely stop attracting the all-empty insert fallback).
	if x.tValid == nil {
		x.tValid = make([]bool, len(x.tCent))
		for t := range x.tMembers {
			x.tValid[t] = len(x.tMembers[t]) > 0
		}
	}
	// The cluster directory is a dense Ks×Kt grid, so side indices are
	// validated before anything is indexed by them: a damaged file fails
	// here, not in the first search.
	ks, kt := len(x.sCentX), len(x.tCent)
	for i := range x.sAssign {
		if s := x.sAssign[i]; s < 0 || s >= ks {
			return nil, nil, fmt.Errorf("core: load: object %d assigned to spatial cluster %d of %d", i, s, ks)
		}
	}
	for i := range x.tAssign {
		if t := x.tAssign[i]; t < 0 || t >= kt {
			return nil, nil, fmt.Errorf("core: load: object %d assigned to semantic cluster %d of %d", i, t, kt)
		}
	}
	x.grid = make([]*hybrid, ks*kt)
	x.clusters = make([]*hybrid, len(g.Clusters))
	for i, gc := range g.Clusters {
		if gc.S < 0 || gc.S >= ks || gc.T < 0 || gc.T >= kt {
			return nil, nil, fmt.Errorf("core: load: cluster %d names side pair (%d,%d) outside %d×%d", i, gc.S, gc.T, ks, kt)
		}
		if x.grid[x.cell(gc.S, gc.T)] != nil {
			return nil, nil, fmt.Errorf("core: load: two clusters name side pair (%d,%d)", gc.S, gc.T)
		}
		c := &hybrid{s: gc.S, t: gc.T, members: make([]member, len(gc.Members))}
		for j, gm := range gc.Members {
			c.members[j] = member{idx: gm.Idx, ds: gm.Ds, dt: gm.Dt}
		}
		c.elems = buildElems(c.members)
		x.clusters[i] = c
		x.grid[x.cell(gc.S, gc.T)] = c
	}
	// Storage order is data: a file whose clusters are not contiguous —
	// written before the cluster-major layout, or saved after in-place
	// maintenance — is renumbered here, after which the derived pieces
	// follow as in Build.
	if err := x.layoutClusterMajor(); err != nil {
		return nil, nil, fmt.Errorf("core: load: %w", err)
	}
	for i := range x.objects {
		if !x.deleted.get(uint32(i)) {
			x.idToIdx[x.objects[i].ID] = uint32(i)
		}
	}
	x.fillCoordArena()
	x.anchors = x.buildAnchors(nil)
	for _, c := range x.clusters {
		x.fillClusterBlock(c)
	}
	// Restore the learned cluster router: version-4 files carry the
	// weights verbatim; older files retrain from the restored index (a
	// handful of self-queries — the clusters above must be built first),
	// so a legacy load transparently gains routed search. A v4 file
	// explicitly saved without a router stays routerless.
	if g.RouteHasModel {
		m := &route.Model{Bias: g.RouteBias, W: g.RouteW, Mean: g.RouteMean, Scale: g.RouteScale}
		if !m.Valid(routeFeatureCount) {
			return nil, nil, fmt.Errorf("core: load: routing model has %d weights, want %d",
				len(g.RouteW), routeFeatureCount)
		}
		x.setRouter(m)
	} else if g.Version < persistVersion {
		x.setRouter(x.trainRouter())
	}
	return x, space, nil
}
