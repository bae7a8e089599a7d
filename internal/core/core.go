// Package core implements the paper's contribution: CSSI (Cluster-based
// Semantic Spatio-textual Indexing) and its approximate variant CSSIA.
//
// The index jointly organizes the spatial and the semantic domain into
// hybrid clusters (§4.1): a spatial K-Means over locations yields Ks
// spatial balls, a semantic K-Means over PCA-projected embeddings yields
// Kt semantic balls, and every object belongs to exactly one (spatial,
// semantic) pair. Each hybrid cluster stores its objects in a single
// array built by a Threshold-Algorithm merge of the two per-centroid
// distance orders, which supports the intra-cluster pruning of Lemma 4.5
// for any query-time λ.
//
// CSSI (Search) is provably exact (Lemma 4.7): clusters are visited in
// ascending lower-bound order (Eq. 4) and both inter-cluster (Lemma 4.4)
// and intra-cluster (Lemma 4.5) pruning preserve the true k-NN set.
// CSSIA (SearchApprox) swaps the semantic cluster representations for
// their projected-space counterparts (§5.2), which shrinks overlap and
// boosts inter-cluster pruning at the cost of a small result error.
package core

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/kmeans"
	"repro/internal/metric"
	"repro/internal/par"
	"repro/internal/pca"
	"repro/internal/vec"
)

// Config controls index construction.
type Config struct {
	// Ks and Kt fix the number of spatial/semantic clusters. When zero
	// they derive from the number of objects each build sees and F via
	// the paper's rule Ks = Kt = √|O|·c·f (§7.1), with c calibrated to
	// 0.7 on measured query latency (DESIGN §3): the default setup yields
	// ≈890 hybrid clusters at 20k objects, ≈22 objects per cluster — a
	// step toward the paper's ≈1,100 (5M objects over 4,489 clusters).
	// A zero stays zero in the stored configuration, so RebuildFresh
	// and a saved and reloaded index derive the counts
	// again from the live objects; Index.Config reports the counts in
	// effect.
	Ks, Kt int
	// F is the cluster-count multiplier f (default 0.3, the paper's
	// default; sweep 0.1–0.9 in Fig. 10). It scales derived counts only.
	F float64
	// M is the PCA projection dimensionality (default 2).
	M int
	// SampleFraction is the share of objects used to fit K-Means and
	// PCA before assigning the rest (default 0.1, §7.1).
	SampleFraction float64
	// PCAMethod selects the PCA path. The zero value is pca.Exact; the
	// paper's choice, and what cssi.Build and the experiments pass, is
	// pca.Randomized.
	PCAMethod pca.Method
	// KMeansIters bounds the Lloyd iterations (default 25).
	KMeansIters int
	// Workers bounds the goroutines of every parallel build phase — both
	// K-Means, the PCA sketch, the projections, centroid means and
	// distances, element arrays, the arena layout, anchoring and the
	// facade's keyword postings (0 =
	// GOMAXPROCS; the paper notes that K-Means and hybrid-cluster
	// formation parallelize readily, §7.5). Above 1, the spatial K-Means
	// runs beside the PCA fit, each phase within its own bound. The built
	// index does not depend on it, bit for bit; 1 runs the whole build on
	// the calling goroutine, for single-threaded measurements.
	Workers int
	// Seed makes construction deterministic.
	Seed uint64
	// DeltaCompactThreshold bounds how many write operations a published
	// snapshot's write overlay may absorb before the concurrent wrappers
	// fold it into a fresh flat base (see overlay.go). Zero or negative
	// selects DefaultDeltaCompactThreshold (a file saved with the retired
	// -1 loads with the overlay on). The core package itself only stores
	// the value (gob-tolerant: absent from older files, loading as 0);
	// the wrappers interpret it.
	DeltaCompactThreshold int
}

// DefaultDeltaCompactThreshold is the overlay size at which the
// concurrent wrappers compact by default: large enough that the O(n)
// fold amortizes to a small constant per write, small enough that the
// extra per-query delta scan stays well under one cluster's work.
const DefaultDeltaCompactThreshold = 4096

// applyDefaults fills the settings whose default does not depend on the
// data; the cluster counts are derived per build (clusterCounts).
func (c *Config) applyDefaults() {
	if c.F == 0 {
		c.F = 0.3
	}
	if c.M <= 0 {
		c.M = 2
	}
	if c.SampleFraction <= 0 || c.SampleFraction > 1 {
		c.SampleFraction = 0.1
	}
	if c.KMeansIters <= 0 {
		c.KMeansIters = 25
	}
}

// clusterScale is the calibration constant c of the cluster-count rule
// (see Config.Ks and DESIGN §3).
const clusterScale = 0.7

// clusterCounts returns the spatial and semantic cluster counts of a
// build over n objects: the explicit ones, else the rule's.
func (c *Config) clusterCounts(n int) (ks, kt int) {
	ks, kt = c.Ks, c.Kt
	if ks == 0 {
		ks = clusterCount(n, c.F)
	}
	if kt == 0 {
		kt = clusterCount(n, c.F)
	}
	return ks, kt
}

// clusterCount applies the paper's cluster-count rule with the
// calibration constant, at least 4.
func clusterCount(n int, f float64) int {
	return max(4, int(math.Round(clusterScale*f*math.Sqrt(float64(n)))))
}

// member is one object of a hybrid cluster with its true normalized
// distances to the cluster's two centroids: the sort key of both of the
// lists the cluster's array is merged from. No cluster stores it; it is
// the transient record of derive's sort (and of CheckInvariants').
type member struct {
	idx    uint32 // storage position of the object's row
	ds, dt float64
}

// element is one slot of the query-time array A (§4.1): the object plus a
// conservative threshold pair, non-increasing along the array, with
// d(o,C) ≤ λ·ds + (1−λ)·dt for every λ.
type element struct {
	idx    uint32
	ds, dt float64
}

// hybrid is one hybrid cluster C = ⟨C^s,R^s,C^t,R^t⟩ plus its object
// array, the only order of its members it keeps (see array.go). Its
// fields — the side pair, the array header, the head thresholds and the
// block base, all a cluster visit reads before it touches a row — fill
// one 64-byte line.
type hybrid struct {
	s, t  int // side-cluster indices
	elems []element
	// headDs and headDt repeat elems[0]'s threshold pair. The thresholds
	// are non-increasing along the array, so the head pair bounds every
	// element: enterCluster tests the Lemma 4.5 cut against it before
	// anything else of the cluster is loaded (see anchor.go).
	headDs, headDt float64
	// base is the storage position of elems[0]: every cluster's elements
	// are contiguous (elems[j].idx == base+j), so its scan block is a
	// window of the arenas. Like the head thresholds it is derived data,
	// set by fillClusterBlock; read through Index.block (see layout.go).
	base int
}

// Index is a built CSSI/CSSIA index. Both query algorithms share one
// index: it keeps the semantic cluster representations in the original
// space (for CSSI and for intra-cluster pruning) and in the projected
// space (for CSSIA's inter-cluster pruning, §5.2).
//
// An Index value is one snapshot's header: the base it reads, which no
// write touches after derive built it, and what the writes since then
// made of it — the live count, the drift counters and the write overlay
// with this snapshot's view of it. Publishing a snapshot copies the
// header, a few cache lines whatever the base holds.
type Index struct {
	*baseIndex

	// live counts the base rows plus the overlay's live inserts minus its
	// tombstones.
	live int

	// delta, when non-nil, is the write overlay of this snapshot's fold
	// lineage (see overlay.go), and dv this snapshot's header over it:
	// Insert/Delete/Update land in the overlay, never in the base, which
	// stays byte-for-byte shared with every snapshot of the lineage.
	// Search runs base + delta as dv sees it; Compact folds it into a
	// fresh flat base. nil (and dv zero) on flat indexes (Build/Load/
	// Compact products) until their first write creates it.
	delta *overlayDelta
	dv    deltaView

	// UpdatesSinceBuild counts Insert/Delete operations since the last
	// (re)build; callers may use it to trigger Rebuild after heavy churn
	// (§6.2).
	UpdatesSinceBuild int
	// insertsSinceBuild and radiusDrifts drive DriftRatio, the rebuild
	// heuristic: an insert outside the build-time ball of its nearest
	// clusters (builtSRad, builtTRadProj; not the live radii, so the
	// signal does not saturate) signals the drift §6.2 rebuilds for.
	insertsSinceBuild, radiusDrifts int
}

// baseIndex is the immutable base every snapshot of one build, load or
// fold shares.
type baseIndex struct {
	cfg   Config
	space *metric.Space

	// Every stored object is one row, at one storage position, kept once:
	// its location in xArena/yArena, its vector in vecArena and the rest
	// in the three columns below, which is all that no arena holds (Topic
	// only because Save writes it). row assembles the object back.
	// Every row is live in the base: Load drops the rows an older file
	// flags deleted, and a delete lands in the overlay.
	ids    []uint32
	texts  []string
	topics []int
	// idIdx maps the ID of every row to its storage position. Build,
	// Load and Compact bulk-build it; the overlay never writes it, so a
	// copied header shares the table whole.
	idIdx *idTable

	// The embeddings and their PCA projections live in two contiguous
	// row-major float32 arenas (SoA, fixed stride): row i of vecArena is
	// the n-dimensional vector of the object at storage position i, row i
	// of projArena its m-dimensional projection; xArena[i], yArena[i] are
	// its location. Storage order is cluster-major (see layout.go), so a
	// cluster scan reads each arena as one linear prefetchable run
	// instead of one pointer chase per row.
	dim            int // n: embedding dimensionality (vecArena stride)
	m              int // m: projection dimensionality (projArena stride)
	vecArena       []float32
	projArena      []float32
	xArena, yArena []float64
	// anchors holds one anchor id and distance per stored row, the
	// pre-kernel semantic lower bound of the scan loops (see anchor.go).
	// Never nil on a built index; derived, never serialized.
	anchors *anchorArena

	pcaModel *pca.Model

	// Spatial side clusters.
	sCentX, sCentY []float64
	sRad           []float64

	// Semantic side clusters: original-space and projected
	// representations.
	tCent     [][]float32
	tRad      []float64
	tCentProj [][]float32
	tRadProj  []float64
	// tValid[t] records whether semantic cluster t had members when its
	// centroid was computed at (re)build time — i.e. whether tCent[t] and
	// tCentProj[t] are meaningful. Clusters that never received a member
	// carry zero centroids that must not attract inserts (nearestSides).
	// Immutable after build (writes never recompute centroids).
	tValid []bool

	// cells[i] is the grid cell s·Kt+t of the row at storage position i:
	// its side clusters, and the hybrid cluster that lists it while it is
	// live.
	cells []uint32

	// clusters lists the non-empty hybrid clusters; grid is the dense
	// Ks×Kt directory over them — grid[s·Kt+t] is the cluster of side
	// pair (s,t), nil where no object populates the pair. Ks and Kt are
	// fixed after build, so the grid never resizes; it is derived, never
	// serialized.
	clusters []*hybrid
	grid     []*hybrid

	// builtSRad and builtTRadProj are the side radii as of the last
	// (re)build, which DriftRatio compares inserts against.
	builtSRad, builtTRadProj []float64

	// scratchPool recycles per-query searchScratch buffers so the query
	// algorithms allocate nothing in steady state. Folds share the pool
	// with the base they fold.
	scratchPool *sync.Pool
}

// Build constructs the index over the dataset (Alg. 1).
func Build(ds *dataset.Dataset, space *metric.Space, cfg Config) (*Index, error) {
	return BuildWithAnchors(ds, space, cfg, nil)
}

// BuildWithAnchors is Build over an anchor set fitted beforehand
// (FitAnchors, with this space and dimensionality) instead of one fitted
// over ds: the indexes over the parts of one corpus share a set fitted
// once over all of it. A nil set is fitted here.
func BuildWithAnchors(ds *dataset.Dataset, space *metric.Space, cfg Config, anchors *Anchors) (*Index, error) {
	var tm BuildTimings
	return buildInstrumented(ds, space, cfg, anchors, &tm)
}

// buildInstrumented is Build with per-phase wall-clock attribution
// (Fig. 15 reports this breakdown).
func buildInstrumented(ds *dataset.Dataset, space *metric.Space, cfg Config, anchors *Anchors, tm *BuildTimings) (*Index, error) {
	if ds.Len() == 0 {
		return nil, fmt.Errorf("core: empty dataset")
	}
	cfg.applyDefaults()
	n := ds.Len()
	ks, kt := cfg.clusterCounts(n)
	x := &Index{baseIndex: &baseIndex{
		cfg:         cfg,
		space:       space,
		dim:         len(ds.Objects[0].Vec),
		scratchPool: newScratchPool(),
	}}
	// The columns are filled in input order and the vectors stay the
	// caller's until the cluster-major order is known: layoutClusterMajor
	// then permutes the columns and writes the vector arena once, in that
	// order.
	vecs := make([][]float32, n)
	for i, o := range ds.Objects {
		if len(o.Vec) != x.dim {
			return nil, fmt.Errorf("core: object %d has vector dim %d, want %d", o.ID, len(o.Vec), x.dim)
		}
		vecs[i] = o.Vec
	}
	x.setColumns(ds.Objects)
	var err error
	if x.idIdx, err = newIDTable(x.ids, cfg.Workers); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	// --- Spatial clustering (Alg. 1 lines 2-4), beside the PCA fit ---
	// The two share no state; each splits its own loops over cfg.Workers,
	// and either fills the cores the other's serial stretches leave idle.
	var sres *kmeans.Result
	spatialErr := make(chan error, 1)
	spatial := func() {
		phase := time.Now()
		spatialBuf := make([]float32, 2*n)
		spatialPts := make([][]float32, n)
		for i := range spatialPts {
			p := spatialBuf[2*i : 2*i+2 : 2*i+2]
			p[0], p[1] = float32(x.xArena[i]), float32(x.yArena[i])
			spatialPts[i] = p
		}
		var err error
		sres, err = kmeans.SampleFit(spatialPts, cfg.SampleFraction, kmeans.Config{
			K: ks, MaxIters: cfg.KMeansIters, Seed: cfg.Seed, Workers: cfg.Workers,
		})
		tm.Spatial = time.Since(phase)
		spatialErr <- err
	}
	if cfg.Workers == 1 {
		spatial()
	} else {
		go spatial()
	}

	// --- PCA projection (Alg. 1 lines 5-6) ---
	phase := time.Now()
	var proj [][]float32
	x.pcaModel, err = pca.Fit(sampleRows(vecs, cfg.SampleFraction, cfg.Seed), pca.Config{
		Components: cfg.M, Method: cfg.PCAMethod, Seed: cfg.Seed, Workers: cfg.Workers,
	})
	if err == nil {
		// Project every vector into the projection arena (parallel: rows
		// are independent). proj holds temporary per-row views used only
		// during the remainder of construction; queries go through projAt.
		x.m = x.pcaModel.M()
		x.projArena = make([]float32, x.m*len(vecs))
		proj = make([][]float32, len(vecs))
		par.For(len(vecs), cfg.Workers, func(lo, hi int) {
			x.pcaModel.TransformRows(x.projArena[lo*x.m:hi*x.m], vecs[lo:hi])
			for i := lo; i < hi; i++ {
				proj[i] = x.projArena[i*x.m : (i+1)*x.m : (i+1)*x.m]
			}
		})
		space.SetProjectedNormalizerArena(x.projArena, x.m)
	}
	tm.PCA = time.Since(phase)

	if serr := <-spatialErr; serr != nil {
		return nil, fmt.Errorf("core: spatial clustering: %w", serr)
	}
	if err != nil {
		return nil, fmt.Errorf("core: PCA: %w", err)
	}
	sAssign := sres.Assign
	ks = len(sres.Centroids)
	x.sCentX = make([]float64, ks)
	x.sCentY = make([]float64, ks)
	for c, cent := range sres.Centroids {
		x.sCentX[c], x.sCentY[c] = float64(cent[0]), float64(cent[1])
	}

	// --- Semantic clustering on the projections (Alg. 1 lines 7-9) ---
	phase = time.Now()
	tres, err := kmeans.SampleFit(proj, cfg.SampleFraction, kmeans.Config{
		K: kt, MaxIters: cfg.KMeansIters, Seed: cfg.Seed + 1, Workers: cfg.Workers,
	})
	if err != nil {
		return nil, fmt.Errorf("core: semantic clustering: %w", err)
	}
	tm.Semantic = time.Since(phase)
	phase = time.Now()
	tAssign := tres.Assign
	kt = len(tres.Centroids)
	x.tCent = make([][]float32, kt)
	x.tCentProj = make([][]float32, kt)
	x.tValid = make([]bool, kt)
	x.cells = make([]uint32, n)
	for i := range x.cells {
		x.cells[i] = uint32(x.cell(sAssign[i], tAssign[i]))
	}

	// Semantic cluster representations: the original-space centroid is
	// the mean of the members' n-dimensional vectors (§4.1); the
	// projected centroid is the mean of their projections (§5.2). Each
	// cluster's means are its own sums, in ascending input order
	// (parallel over clusters).
	tMembers := membersByAssign(tAssign, kt)
	par.For(kt, cfg.Workers, func(lo, hi int) {
		for t := lo; t < hi; t++ {
			ms := tMembers[t]
			cent := make([]float32, x.dim)
			centP := make([]float32, x.m)
			x.tValid[t] = len(ms) > 0
			if len(ms) > 0 {
				rows := make([][]float32, len(ms))
				rowsP := make([][]float32, len(ms))
				for i, mi := range ms {
					rows[i] = vecs[mi]
					rowsP[i] = proj[mi]
				}
				vec.Mean(cent, rows)
				vec.Mean(centP, rowsP)
			}
			x.tCent[t] = cent
			x.tCentProj[t] = centP
		}
	})

	// Per-object distances to the assigned centroids, which feed both
	// the radii and the hybrid-cluster member records.
	dsAll, dtAll, dpAll := x.sideDists(vecs)
	x.setRadii(dsAll, dtAll, dpAll)

	// --- Hybrid clusters and their arrays (Alg. 1 lines 10-14) ---
	x.derive(dsAll, dtAll, vecs, anchors)
	tm.Hybrid = time.Since(phase)
	return x, nil
}

// sampleRows deterministically samples a fraction of rows (at least 2,
// capped at all rows).
func sampleRows(rows [][]float32, fraction float64, seed uint64) [][]float32 {
	n := int(math.Ceil(fraction * float64(len(rows))))
	if n < 2 {
		n = 2
	}
	if n >= len(rows) {
		return rows
	}
	// A fixed-stride sample keyed by the seed keeps this allocation-light
	// and deterministic.
	out := make([][]float32, 0, n)
	stride := len(rows) / n
	if stride < 1 {
		stride = 1
	}
	start := int(seed % uint64(stride))
	for i := start; i < len(rows) && len(out) < n; i += stride {
		out = append(out, rows[i])
	}
	return out
}

// membersByAssign lists, per side cluster, the positions assigned to it
// in ascending order, as windows of one buffer. Empty clusters keep a
// nil list.
func membersByAssign(assign []int, k int) [][]uint32 {
	counts := make([]int, k)
	for _, c := range assign {
		counts[c]++
	}
	buf := make([]uint32, len(assign))
	lists := make([][]uint32, k)
	off := 0
	for c, n := range counts {
		if n > 0 {
			lists[c] = buf[off : off : off+n]
			off += n
		}
	}
	for i, c := range assign {
		lists[c] = append(lists[c], uint32(i))
	}
	return lists
}

// derive produces the index's derived state from its base state alone —
// the columns and arenas, the cell column and the model — and is the
// only code that does: Build and Compact end in it, and Load is decode,
// validate, derive. ds and dt hold every row's distances to its two side
// centroids; vecs holds one vector per row before the vector arena is
// written (Build's, or views of the folded snapshot's arena and overlay
// log; nil from Load). In turn it forms the hybrid clusters over the
// rows, merges each one's array, renumbers storage into the order those
// arrays dictate, anchors every row over set (fitted here when nil) that
// does not carry an anchor over it already (buildAnchors) and fills
// every scan block — a window of the arenas — and restarts the drift
// baseline from the current radii.
func (x *Index) derive(ds, dt []float64, vecs [][]float32, set *Anchors) {
	x.live = x.rows()
	x.grid, x.clusters = make([]*hybrid, len(x.sCentX)*len(x.tCent)), nil
	ms := x.formHybrids(ds, dt)
	par.For(len(x.clusters), x.cfg.Workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			x.clusters[i].buildElems(ms[i])
		}
	})
	x.layoutClusterMajor(vecs)
	x.anchors = x.buildAnchors(set)
	for _, c := range x.clusters {
		fillClusterBlock(c)
	}
	x.builtSRad = append([]float64(nil), x.sRad...)
	x.builtTRadProj = append([]float64(nil), x.tRadProj...)
}

// formHybrids places every row in the hybrid cluster its cell names,
// with precomputed centroid distances: clusters appear in the directory
// in order of their first row. It returns, per cluster in directory
// order, the cluster's members in storage order as windows of one
// transient buffer (a counting pass sizes them), for buildElems to sort.
func (x *Index) formHybrids(ds, dt []float64) [][]member {
	counts := make([]int, len(x.grid))
	for _, cell := range x.cells {
		counts[cell]++
	}
	buf := make([]member, x.rows())
	var ms [][]member
	slot := make([]int32, len(x.grid)) // cell → index into ms
	off := 0
	for i, cell := range x.cells {
		if x.grid[cell] == nil {
			n := counts[cell]
			s, t := x.sides(cell)
			x.grid[cell] = &hybrid{s: s, t: t}
			x.clusters = append(x.clusters, x.grid[cell])
			slot[cell] = int32(len(ms))
			ms = append(ms, buf[off:off:off+n])
			off += n
		}
		j := slot[cell]
		ms[j] = append(ms[j], member{idx: uint32(i), ds: ds[i], dt: dt[i]})
	}
	return ms
}

// sideDists returns every row's distances to its two side centroids —
// spatial, semantic and projected semantic. Row i's vector is vecs[i],
// or its vector-arena row when vecs is nil.
func (x *Index) sideDists(vecs [][]float32) (ds, dt, dp []float64) {
	n := x.rows()
	ds, dt, dp = make([]float64, n), make([]float64, n), make([]float64, n)
	par.For(n, x.cfg.Workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			idx := uint32(i)
			var v []float32
			if vecs != nil {
				v = vecs[i]
			} else {
				v = x.vecAt(idx)
			}
			s, t := x.sides(x.cells[i])
			ds[i], dt[i], dp[i] = x.spatialToCent(idx, s), x.space.SemanticVec(v, x.tCent[t]), x.projToCent(idx, t)
		}
	})
	return ds, dt, dp
}

// setRadii sets every side radius, in all three representations, by
// Build's rule: the max of its rows' distances (parallel max folds).
func (x *Index) setRadii(ds, dt, dp []float64) {
	n, w := x.rows(), x.cfg.Workers
	s := func(i int) int { s, _ := x.sides(x.cells[i]); return s }
	t := func(i int) int { _, t := x.sides(x.cells[i]); return t }
	x.sRad = maxPerPartition(n, len(x.sCentX), w, s, func(i int) float64 { return ds[i] })
	x.tRad = maxPerPartition(n, len(x.tCent), w, t, func(i int) float64 { return dt[i] })
	x.tRadProj = maxPerPartition(n, len(x.tCent), w, t, func(i int) float64 { return dp[i] })
}

// spatialToCent returns the normalized spatial distance from object idx
// to spatial centroid s.
func (x *Index) spatialToCent(idx uint32, s int) float64 {
	return x.space.SpatialXY(x.xArena[idx], x.yArena[idx], x.sCentX[s], x.sCentY[s])
}

// semanticToCent returns the normalized original-space semantic distance
// from object idx to semantic centroid t.
func (x *Index) semanticToCent(idx uint32, t int) float64 {
	return x.space.SemanticVec(x.vecAt(idx), x.tCent[t])
}

// projToCent returns the normalized projected-space distance from object
// idx to the projected semantic centroid t.
func (x *Index) projToCent(idx uint32, t int) float64 {
	return x.space.SemanticProjVec(x.projAt(idx), x.tCentProj[t])
}

// vecAt returns the arena row holding the embedding of the object at
// storage position i.
func (x *Index) vecAt(i uint32) []float32 {
	d := x.dim
	return x.vecArena[int(i)*d : (int(i)+1)*d : (int(i)+1)*d]
}

// projAt returns the arena row holding the m-dimensional projection of
// the object at storage position i.
func (x *Index) projAt(i uint32) []float32 {
	m := x.m
	return x.projArena[int(i)*m : (int(i)+1)*m : (int(i)+1)*m]
}

// row assembles the object stored at position i from its columns and
// arenas. Vec is a view of the vector arena: read-only, like the rest of
// a snapshot.
func (x *Index) row(i uint32) dataset.Object {
	return dataset.Object{ID: x.ids[i], X: x.xArena[i], Y: x.yArena[i],
		Text: x.texts[i], Vec: x.vecAt(i), Topic: x.topics[i]}
}

// setColumns stores objs, in order, as the rows of the columns and of
// the coordinate arena.
func (x *Index) setColumns(objs []dataset.Object) {
	n := len(objs)
	x.ids, x.texts, x.topics = make([]uint32, n), make([]string, n), make([]int, n)
	x.xArena, x.yArena = make([]float64, n), make([]float64, n)
	for i := range objs {
		o := &objs[i]
		x.ids[i], x.texts[i], x.topics[i] = o.ID, o.Text, o.Topic
		x.xArena[i], x.yArena[i] = o.X, o.Y
	}
}

// rows returns the number of storage positions: the base rows.
func (x *Index) rows() int { return len(x.ids) }

// cell returns the grid position of side pair (s,t).
func (x *Index) cell(s, t int) int { return s*len(x.tCent) + t }

// sides returns the side pair of grid position cell.
func (x *Index) sides(cell uint32) (s, t int) {
	kt := uint32(len(x.tCent))
	return int(cell / kt), int(cell % kt)
}

// baseLive returns the number of live base rows: the live objects but
// the overlay's inserts. The hybrid clusters list them and, with a write
// overlay, its tombstoned base rows too.
func (x *Index) baseLive() int64 {
	return int64(x.live - x.DeltaLive())
}

// liveElems returns the number of c's elements that are live: all of
// them but those the overlay has tombstoned, counted over c's window of
// storage positions. Only counted reads ask.
func (x *Index) liveElems(c *hybrid) int64 {
	return x.liveIn(c, 0, len(c.elems))
}

// liveIn returns the number of live elements among c's elements
// [from, to).
func (x *Index) liveIn(c *hybrid, from, to int) int64 {
	return int64(to-from) - int64(x.deltaTombs().countRange(c.base+from, c.base+to))
}

// Len returns the number of live objects.
func (x *Index) Len() int { return x.live }

// Dim returns the embedding dimensionality the index was built with —
// the vector length every query and inserted object must carry.
func (x *Index) Dim() int { return x.dim }

// NumClusters returns the number of non-empty hybrid clusters.
func (x *Index) NumClusters() int { return len(x.clusters) }

// Config returns the effective configuration: defaults applied, and Ks
// and Kt the cluster counts this index was built with.
func (x *Index) Config() Config {
	c := x.cfg
	c.Ks, c.Kt = len(x.sCentX), len(x.tCent)
	return c
}

// Space exposes the metric space the index computes distances in. The
// snapshot facade reads it because RebuildFresh gives the replacement
// index its own space copy.
func (x *Index) Space() *metric.Space { return x.space }

// Object returns a copy of the live object with the given ID, assembled
// from the index's columns: its Vec views the index's vector storage and
// must not be written. With a write overlay present the delta wins: an
// overlay insert shadows nothing (the ID was free), an overlay tombstone
// hides the base object, and an overlay update is a tombstone plus an
// insert.
func (x *Index) Object(id uint32) (dataset.Object, bool) {
	if d := x.delta; d != nil {
		if pos, ok := d.slotAt(&x.dv, id); ok {
			return x.dv.log.objs[pos], true
		}
	}
	idx, ok := x.idIdx.get(id)
	if !ok || x.deltaTombs().get(idx) {
		return dataset.Object{}, false
	}
	return x.row(idx), true
}
