package core

import (
	"encoding/gob"
	"fmt"
	"io"

	"repro/internal/dataset"
	"repro/internal/metric"
	"repro/internal/par"
	"repro/internal/pca"
)

// Index persistence: Save writes everything needed to answer queries —
// the objects, the PCA model, both semantic cluster representations, the
// assignments and the hybrid-cluster membership — so Load restores a
// fully functional index without re-clustering. The per-cluster element
// arrays are cheap to rebuild and are therefore not serialized: Load
// sorts each member list (written in L_s order, or in storage order by
// older code) and merges the array as Build does. It recomputes every
// member's distances from the arenas and reads the file's for nothing:
// they are the Lemma 4.5 thresholds, and a damaged value would make an
// exact answer silently wrong. The file still carries them, and the side
// assignments and side member lists the index derives from its cell
// column, so that older code reads it unchanged. The stored Config
// keeps zero cluster counts zero, so a reloaded index rebuilds at the
// counts its live objects derive; a file that recorded explicit counts —
// every file written before counts were derived per build — keeps them.

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
// slices: Objects carry nil Vec on the wire, Save assembles them from the
// index's columns and Load spreads them back into the columns. Version-1
// files (per-object Vec plus the legacy Proj field) are still accepted —
// Load migrates them into arenas; gob ignores stream fields absent from
// this struct and leaves struct fields absent from the stream at their
// zero value, so both layouts decode through it — as do files that still
// carry the removed SQ8 arena (four Quant* fields here and its on/off
// flag in Cfg) or the removed cluster router (five Route* fields), whose
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
	// SMembers and TMembers list each side cluster's live rows in
	// ascending storage position. Save writes them for older readers;
	// Load ignores them.
	SMembers [][]uint32

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
}

const (
	persistVersionV1 = 1 // per-object vectors + [][]float32 projections
	persistVersionV2 = 2 // flat vector/projection arenas
	persistVersionV3 = 3 // v2 + an SQ8 arena no code reads any more (gob skips its fields)
	persistVersion   = 4 // v3 + a learned cluster router no code reads any more (gob skips its fields)
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
	// The objects are assembled from the columns without their vectors,
	// which travel once, in VecArena.
	objs := make([]dataset.Object, x.rows())
	for i := range objs {
		objs[i] = x.row(uint32(i))
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
		Deleted:            x.deleted.bools(x.rows()),
		Live:               x.live,
		PCAModel:           x.pcaModel,
		Dim:                x.dim,
		M:                  x.m,
		VecArena:           x.vecArena,
		ProjArena:          x.projArena,
		SCentX:             x.sCentX,
		SCentY:             x.sCentY,
		SRad:               x.sRad,
		TCent:              x.tCent,
		TRad:               x.tRad,
		TCentProj:          x.tCentProj,
		TRadProj:           x.tRadProj,
		TValid:             x.tValid,
		UpdatesSinceBuild_: x.UpdatesSinceBuild,
	}
	g.SAssign, g.TAssign, g.SMembers, g.TMembers = x.sideAssignments()
	g.Clusters = make([]gobHybrid, len(x.clusters))
	for i, c := range x.clusters {
		gc := gobHybrid{S: c.s, T: c.t, Members: make([]gobMember, len(c.members))}
		ds := x.dsOf(c)
		for j, idx := range c.members {
			gc.Members[j] = gobMember{Idx: idx, Ds: ds(j), Dt: c.dt[j]}
		}
		g.Clusters[i] = gc
	}
	if err := gob.NewEncoder(w).Encode(&g); err != nil {
		return fmt.Errorf("core: save: %w", err)
	}
	return nil
}

// sideAssignments derives from the cell column what the file keeps per
// side: every row's two side clusters, and each side cluster's live rows
// in ascending storage position.
func (x *Index) sideAssignments() (sAssign, tAssign []int, sMembers, tMembers [][]uint32) {
	n := x.rows()
	sAssign, tAssign = make([]int, n), make([]int, n)
	sMembers, tMembers = make([][]uint32, len(x.sCentX)), make([][]uint32, len(x.tCent))
	for i, cell := range x.cells {
		s, t := x.sides(cell)
		sAssign[i], tAssign[i] = s, t
		if !x.deleted.get(uint32(i)) {
			sMembers[s] = append(sMembers[s], uint32(i))
			tMembers[t] = append(tMembers[t], uint32(i))
		}
	}
	return sAssign, tAssign, sMembers, tMembers
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
		g.Objects[i].Vec = nil
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
		deleted:           bitsetFromBools(g.Deleted, len(g.Objects)),
		live:              g.Live,
		pcaModel:          g.PCAModel,
		dim:               g.Dim,
		m:                 g.M,
		vecArena:          g.VecArena,
		projArena:         g.ProjArena,
		scratchPool:       newScratchPool(),
		sCentX:            g.SCentX,
		sCentY:            g.SCentY,
		sRad:              g.SRad,
		tCent:             g.TCent,
		tRad:              g.TRad,
		tCentProj:         g.TCentProj,
		tRadProj:          g.TRadProj,
		tValid:            g.TValid,
		UpdatesSinceBuild: g.UpdatesSinceBuild_,
	}
	x.setColumns(g.Objects)
	g.Objects = nil
	// The drift baseline restarts from the loaded radii.
	x.builtSRad = append([]float64(nil), x.sRad...)
	x.builtTRadProj = append([]float64(nil), x.tRadProj...)
	// The cluster directory is a dense Ks×Kt grid, so side indices are
	// validated before anything is indexed by them: a damaged file fails
	// here, not in the first search.
	ks, kt := len(x.sCentX), len(x.tCent)
	var err error
	if x.cells, err = loadCells(g.SAssign, g.TAssign, ks, kt, x.rows()); err != nil {
		return nil, nil, err
	}
	x.tCount = make([]int32, kt)
	for i, cell := range x.cells {
		if !x.deleted.get(uint32(i)) {
			_, t := x.sides(cell)
			x.tCount[t]++
		}
	}
	// Files written before TValid existed: approximate centroid validity
	// by current membership (only wrong for clusters emptied by deletes,
	// which then merely stop attracting the all-empty insert fallback).
	if x.tValid == nil {
		x.tValid = make([]bool, kt)
		for t, n := range x.tCount {
			x.tValid[t] = n > 0
		}
	}
	if x.idIdx, err = newIDTable(x.ids, x.deleted, x.cfg.Workers); err != nil {
		return nil, nil, fmt.Errorf("core: load: %w", err)
	}
	x.grid = make([]*hybrid, ks*kt)
	x.clusters = make([]*hybrid, len(g.Clusters))
	total := 0
	for _, gc := range g.Clusters {
		total += len(gc.Members)
	}
	buf := make([]member, total)
	ms := make([][]member, len(g.Clusters))
	for i, gc := range g.Clusters {
		if gc.S < 0 || gc.S >= ks || gc.T < 0 || gc.T >= kt {
			return nil, nil, fmt.Errorf("core: load: cluster %d names side pair (%d,%d) outside %d×%d", i, gc.S, gc.T, ks, kt)
		}
		cell := x.cell(gc.S, gc.T)
		if x.grid[cell] != nil {
			return nil, nil, fmt.Errorf("core: load: two clusters name side pair (%d,%d)", gc.S, gc.T)
		}
		ms[i], buf = buf[:len(gc.Members)], buf[len(gc.Members):]
		for j, gm := range gc.Members {
			if int(gm.Idx) >= x.rows() || x.cells[gm.Idx] != uint32(cell) {
				return nil, nil, fmt.Errorf("core: load: cluster %d lists position %d, out of range or assigned elsewhere", i, gm.Idx)
			}
			ms[i][j].idx = gm.Idx
		}
		x.clusters[i] = &hybrid{s: gc.S, t: gc.T}
		x.grid[cell] = x.clusters[i]
	}
	// Every member's distances, recomputed from the arenas in one pass.
	par.For(len(g.Clusters), x.cfg.Workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			c := x.clusters[i]
			for j := range ms[i] {
				m := &ms[i][j]
				m.ds, m.dt = x.spatialToCent(m.idx, c.s), x.semanticToCent(m.idx, c.t)
			}
		}
	})
	x.orderClusters(ms)
	// Storage order is data: a file whose clusters are not contiguous —
	// written before the cluster-major layout, or saved after in-place
	// maintenance — is renumbered here, after which the derived pieces
	// follow as in Build.
	if err := x.layoutClusterMajor(nil); err != nil {
		return nil, nil, fmt.Errorf("core: load: %w", err)
	}
	x.anchors = x.buildAnchors(nil)
	for _, c := range x.clusters {
		x.fillClusterBlock(c)
	}
	return x, space, nil
}

// loadCells folds a file's side assignments into the cell column,
// rejecting a row count other than n and any side outside [0,ks)×[0,kt).
func loadCells(sAssign, tAssign []int, ks, kt, n int) ([]uint32, error) {
	if len(sAssign) != n || len(tAssign) != n {
		return nil, fmt.Errorf("core: load: %d/%d side assignments for %d objects", len(sAssign), len(tAssign), n)
	}
	cells := make([]uint32, n)
	for i, s := range sAssign {
		if t := tAssign[i]; s < 0 || s >= ks || t < 0 || t >= kt {
			return nil, fmt.Errorf("core: load: object %d assigned to side pair (%d,%d) outside %d×%d", i, s, t, ks, kt)
		}
		cells[i] = uint32(s*kt + tAssign[i])
	}
	return cells, nil
}
