package core

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"slices"

	"repro/internal/dataset"
	"repro/internal/metric"
	"repro/internal/pca"
)

// Index persistence. Save writes one gob-encoded gobIndex holding the
// base state alone: the rows (columns, arenas, and the cell column as two
// side assignments) and the model (metric space, PCA, both side
// clusterings' centroids and radii, TValid). Load reads version 4 only:
// it rejects a file whose lengths, side indices or radii do not fit
// together, drops the rows an older file flags deleted and derives the
// rest as Build does (derive). gob skips the stream fields gobIndex does
// not declare, so files that older code wrote load too, with their
// derived sections (a live count, side member lists, the hybrid clusters
// with member distances), the removed SQ8 arena (four Quant* fields and
// its on/off flag in Cfg) or the removed cluster router (five Route*
// fields) unread: no stored derived value can make an exact answer
// wrong. The stored Config keeps zero cluster counts zero, so a reloaded
// index rebuilds at the counts its live objects derive; a file that
// recorded explicit counts keeps them.

// gobIndex is the serialized form of an Index. The embeddings and
// projections travel as the two flat arenas with their strides: Objects
// carry nil Vec.
type gobIndex struct {
	Version int // 4
	Cfg     Config

	// The metric space.
	DsMax, DtMax, DtProjMax float64
	SemanticKind            metric.SemanticMetric

	Objects []dataset.Object // the columns and coordinates
	// Deleted flags, per object, a row that older code deleted in place;
	// Load drops the flagged rows. Save writes all false, because older
	// readers require one flag per object.
	Deleted []bool

	PCAModel *pca.Model

	// The strides and the arenas, one row per object.
	Dim, M              int
	VecArena, ProjArena []float32

	SCentX, SCentY, SRad []float64 // Ks spatial clusters

	// Kt semantic clusters. TValid marks those whose centroids were
	// computed from at least one member (see Index.tValid).
	TCent     [][]float32
	TRad      []float64
	TCentProj [][]float32
	TRadProj  []float64
	TValid    []bool

	SAssign, TAssign   []int // folded into the cell column
	UpdatesSinceBuild_ int
}

const persistVersion = 4 // the one version Load reads

// Save writes the index (including its metric-space normalizers) to w.
func (x *Index) Save(w io.Writer) error {
	// The write overlay is a transient in-memory representation; the wire
	// format stays flat, so a snapshot carrying pending overlay writes is
	// folded before serializing.
	if x.dv.ops > 0 {
		nx, err := x.Compact()
		if err != nil {
			return fmt.Errorf("core: save: %w", err)
		}
		return nx.Save(w)
	}
	// The objects are assembled from the columns without their vectors,
	// which travel once, in VecArena.
	n := x.rows()
	objs := make([]dataset.Object, n)
	sAssign, tAssign := make([]int, n), make([]int, n)
	for i := range objs {
		objs[i] = x.row(uint32(i))
		objs[i].Vec = nil
		sAssign[i], tAssign[i] = x.sides(x.cells[i])
	}
	g := gobIndex{
		Version:            persistVersion,
		Cfg:                x.cfg,
		DsMax:              x.space.DsMax,
		DtMax:              x.space.DtMax,
		DtProjMax:          x.space.DtProjMax,
		SemanticKind:       x.space.SemanticKind,
		Objects:            objs,
		Deleted:            make([]bool, n),
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
		SAssign:            sAssign,
		TAssign:            tAssign,
		UpdatesSinceBuild_: x.UpdatesSinceBuild,
	}
	if err := gob.NewEncoder(w).Encode(&g); err != nil {
		return fmt.Errorf("core: save: %w", err)
	}
	return nil
}

// Load restores an index previously written by Save, together with its
// metric space: decode, validate the base state, drop the rows flagged
// deleted, derive the rest.
func Load(r io.Reader) (*Index, *metric.Space, error) {
	var g gobIndex
	if err := gob.NewDecoder(r).Decode(&g); err != nil {
		return nil, nil, fmt.Errorf("core: load: %w", err)
	}
	if err := g.check(); err != nil {
		return nil, nil, fmt.Errorf("core: load: %w", err)
	}
	space := &metric.Space{DsMax: g.DsMax, DtMax: g.DtMax, DtProjMax: g.DtProjMax, SemanticKind: g.SemanticKind}
	g.dropDeleted()
	x := &Index{baseIndex: &baseIndex{
		cfg:         g.Cfg,
		space:       space,
		pcaModel:    g.PCAModel,
		dim:         g.Dim,
		m:           g.M,
		vecArena:    g.VecArena,
		projArena:   g.ProjArena,
		scratchPool: newScratchPool(),
		sCentX:      g.SCentX,
		sCentY:      g.SCentY,
		sRad:        g.SRad,
		tCent:       g.TCent,
		tRad:        g.TRad,
		tCentProj:   g.TCentProj,
		tRadProj:    g.TRadProj,
		tValid:      g.TValid,
	}, UpdatesSinceBuild: g.UpdatesSinceBuild_}
	x.setColumns(g.Objects)
	var err error
	if x.cells, err = loadCells(g.SAssign, g.TAssign, len(x.sCentX), len(x.tCent)); err != nil {
		return nil, nil, fmt.Errorf("core: load: %w", err)
	}
	if x.idIdx, err = newIDTable(x.ids, x.cfg.Workers); err != nil {
		return nil, nil, fmt.Errorf("core: load: %w", err)
	}
	ds, dt, err := x.coveredDists()
	if err != nil {
		return nil, nil, fmt.Errorf("core: load: %w", err)
	}
	x.derive(ds, dt, nil, nil)
	return x, space, nil
}

// check rejects a base state whose lengths do not fit together — every
// length something is later indexed by — or whose normalizers are not
// positive and finite, so that a damaged file fails here, not with a
// panic in derive or in a later search.
func (g *gobIndex) check() error {
	if g.Version != persistVersion {
		return fmt.Errorf("unsupported version %d: the oldest readable version is %d", g.Version, persistVersion)
	}
	n, p := len(g.Objects), g.PCAModel
	switch {
	case g.Dim <= 0 || len(g.VecArena) != n*g.Dim:
		return fmt.Errorf("vector arena length %d does not match %d objects of dim %d", len(g.VecArena), n, g.Dim)
	case g.M <= 0 || len(g.ProjArena) != n*g.M:
		return fmt.Errorf("projection arena length %d does not match %d objects of dim %d", len(g.ProjArena), n, g.M)
	case !(g.DsMax > 0 && g.DtMax > 0 && g.DtProjMax > 0) || math.IsInf(g.DsMax+g.DtMax+g.DtProjMax, 0):
		return fmt.Errorf("metric normalizers %v/%v/%v are not positive and finite", g.DsMax, g.DtMax, g.DtProjMax)
	case len(g.Deleted) != n:
		return fmt.Errorf("%d deleted flags for %d objects", len(g.Deleted), n)
	case len(g.SAssign) != n || len(g.TAssign) != n:
		return fmt.Errorf("%d/%d side assignments for %d objects", len(g.SAssign), len(g.TAssign), n)
	case p == nil || p.Components == nil || p.N() != g.Dim || p.M() != g.M ||
		len(p.Mean) != g.Dim || len(p.Components.Data) != g.Dim*g.M:
		return fmt.Errorf("PCA model missing or not a map from dim %d to %d", g.Dim, g.M)
	}
	ks, kt := len(g.SCentX), len(g.TCent)
	if ks < 1 || len(g.SCentY) != ks || len(g.SRad) != ks {
		return fmt.Errorf("%d/%d/%d spatial centroid x/y and radii", ks, len(g.SCentY), len(g.SRad))
	}
	if kt < 1 || len(g.TRad) != kt || len(g.TCentProj) != kt || len(g.TRadProj) != kt || len(g.TValid) != kt {
		return fmt.Errorf("%d semantic centroids with %d/%d/%d/%d radii/projections/projected radii/flags", kt, len(g.TRad), len(g.TCentProj), len(g.TRadProj), len(g.TValid))
	}
	for t := range g.TCent {
		if len(g.TCent[t]) != g.Dim || len(g.TCentProj[t]) != g.M {
			return fmt.Errorf("semantic centroid %d has %d/%d values, want %d/%d", t, len(g.TCent[t]), len(g.TCentProj[t]), g.Dim, g.M)
		}
	}
	return nil
}

// dropDeleted removes the rows the file flags deleted, with their arena
// rows and side assignments, so that every row Load keeps is live. Only
// files older code saved after deleting in place carry such flags.
func (g *gobIndex) dropDeleted() {
	keep := slices.Index(g.Deleted, true)
	if keep < 0 {
		return
	}
	d, m := g.Dim, g.M
	for i := keep; i < len(g.Objects); i++ {
		if g.Deleted[i] {
			continue
		}
		g.Objects[keep] = g.Objects[i]
		copy(g.VecArena[keep*d:(keep+1)*d], g.VecArena[i*d:(i+1)*d])
		copy(g.ProjArena[keep*m:(keep+1)*m], g.ProjArena[i*m:(i+1)*m])
		g.SAssign[keep], g.TAssign[keep] = g.SAssign[i], g.TAssign[i]
		keep++
	}
	g.Objects, g.VecArena, g.ProjArena = g.Objects[:keep], g.VecArena[:keep*d], g.ProjArena[:keep*m]
	g.SAssign, g.TAssign = g.SAssign[:keep], g.TAssign[:keep]
}

// loadCells folds a file's side assignments, one per row, into the cell
// column, rejecting any side outside [0,ks)×[0,kt).
func loadCells(sAssign, tAssign []int, ks, kt int) ([]uint32, error) {
	cells := make([]uint32, len(sAssign))
	for i, s := range sAssign {
		if t := tAssign[i]; s < 0 || s >= ks || t < 0 || t >= kt {
			return nil, fmt.Errorf("object %d assigned to side pair (%d,%d) outside %d×%d", i, s, t, ks, kt)
		}
		cells[i] = uint32(s*kt + tAssign[i])
	}
	return cells, nil
}

// coveredDists computes every row's distances to its two side
// centroids, what derive orders the clusters by, and rejects a row that
// one of its side radii, in any representation, does not cover: the radii
// are the file's, and Lemma 4.4's bounds hold only while they cover every
// member. A NaN distance is not covered.
func (x *Index) coveredDists() (ds, dt []float64, err error) {
	ds, dt, dp := x.sideDists(nil)
	for i, cell := range x.cells {
		if s, t := x.sides(cell); !(ds[i] <= x.sRad[s] && dt[i] <= x.tRad[t] && dp[i] <= x.tRadProj[t]) {
			return nil, nil, fmt.Errorf("object %d lies outside the radii of its side pair (%d,%d)", x.ids[i], s, t)
		}
	}
	return ds, dt, nil
}
