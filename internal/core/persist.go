package core

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"

	"repro/internal/dataset"
	"repro/internal/metric"
	"repro/internal/pca"
)

// Index persistence. Save writes one gob-encoded gobIndex: the base state
// — the rows (columns, arenas, deleted flags, and the cell column as two
// side assignments) and the model (metric space, PCA, both side
// clusterings' centroids and radii, TValid) — plus derived state for
// older readers: the live count, the side member lists and the hybrid
// clusters with their member distances. Load reads version 4 only, and
// only its base state: it rejects one whose lengths, side indices or
// radii do not fit together and derives the rest as Build does (derive),
// so no stored derived value can make an exact answer wrong. The stored
// Config keeps zero cluster counts zero, so a reloaded index rebuilds at
// the counts its live objects derive; a file that recorded explicit
// counts keeps them.

// gobMember and gobHybrid mirror member and hybrid with exported fields.
// Written only for older readers.
type gobMember struct {
	Idx    uint32
	Ds, Dt float64
}

type gobHybrid struct {
	S, T    int
	Members []gobMember
}

// gobIndex is the serialized form of an Index; each field is either read
// by Load or written only for older readers. The embeddings and
// projections travel as the two flat arenas with their strides: Objects
// carry nil Vec. gob skips stream fields this struct does not declare, so
// files that still carry the removed SQ8 arena (four Quant* fields and
// its on/off flag in Cfg) or the removed cluster router (five Route*
// fields) load too.
type gobIndex struct {
	Version int // read: 4
	Cfg     Config

	// Read: the metric space.
	DsMax, DtMax, DtProjMax float64
	SemanticKind            metric.SemanticMetric

	Objects []dataset.Object // read: the columns and coordinates
	Deleted []bool           // read: one flag per object
	Live    int              // written only for older readers

	PCAModel *pca.Model // read

	// Read: the strides and the arenas, one row per object.
	Dim, M              int
	VecArena, ProjArena []float32
	// Proj held version 1's per-row projections. It is neither read nor
	// written, but gob's type descriptor names every declared field, so
	// dropping it would change Save's bytes.
	Proj [][]float32

	SCentX, SCentY, SRad []float64  // read: Ks spatial clusters
	SMembers             [][]uint32 // written only for older readers

	// Read: Kt semantic clusters. TValid marks those whose centroids were
	// computed from at least one member (see Index.tValid).
	TCent     [][]float32
	TRad      []float64
	TCentProj [][]float32
	TRadProj  []float64
	TMembers  [][]uint32 // written only for older readers
	TValid    []bool

	SAssign, TAssign   []int       // read: folded into the cell column
	Clusters           []gobHybrid // written only for older readers
	UpdatesSinceBuild_ int         // read
}

const persistVersion = 4 // the one version Load reads

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

// Load restores an index previously written by Save, together with its
// metric space: decode, validate the base state, derive the rest.
func Load(r io.Reader) (*Index, *metric.Space, error) {
	var g gobIndex
	if err := gob.NewDecoder(r).Decode(&g); err != nil {
		return nil, nil, fmt.Errorf("core: load: %w", err)
	}
	if err := g.check(); err != nil {
		return nil, nil, fmt.Errorf("core: load: %w", err)
	}
	space := &metric.Space{DsMax: g.DsMax, DtMax: g.DtMax, DtProjMax: g.DtProjMax, SemanticKind: g.SemanticKind}
	x := &Index{
		cfg:               g.Cfg,
		space:             space,
		deleted:           bitsetFromBools(g.Deleted, len(g.Objects)),
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
	var err error
	if x.cells, err = loadCells(g.SAssign, g.TAssign, len(x.sCentX), len(x.tCent), x.rows()); err != nil {
		return nil, nil, fmt.Errorf("core: load: %w", err)
	}
	if x.idIdx, err = newIDTable(x.ids, x.deleted, x.cfg.Workers); err != nil {
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

// loadCells folds a file's side assignments into the cell column,
// rejecting a row count other than n and any side outside [0,ks)×[0,kt).
func loadCells(sAssign, tAssign []int, ks, kt, n int) ([]uint32, error) {
	if len(sAssign) != n || len(tAssign) != n {
		return nil, fmt.Errorf("%d/%d side assignments for %d objects", len(sAssign), len(tAssign), n)
	}
	cells := make([]uint32, n)
	for i, s := range sAssign {
		if t := tAssign[i]; s < 0 || s >= ks || t < 0 || t >= kt {
			return nil, fmt.Errorf("object %d assigned to side pair (%d,%d) outside %d×%d", i, s, t, ks, kt)
		}
		cells[i] = uint32(s*kt + tAssign[i])
	}
	return cells, nil
}

// coveredDists computes every live row's distances to its two side
// centroids, what derive orders the clusters by, and rejects a row that
// one of its side radii, in any representation, does not cover: the radii
// are the file's, and Lemma 4.4's bounds hold only while they cover every
// member. A NaN distance is not covered.
func (x *Index) coveredDists() (ds, dt []float64, err error) {
	ds, dt, dp := x.sideDists(nil)
	for i, cell := range x.cells {
		if s, t := x.sides(cell); !x.deleted.get(uint32(i)) &&
			!(ds[i] <= x.sRad[s] && dt[i] <= x.tRad[t] && dp[i] <= x.tRadProj[t]) {
			return nil, nil, fmt.Errorf("object %d lies outside the radii of its side pair (%d,%d)", x.ids[i], s, t)
		}
	}
	return ds, dt, nil
}
