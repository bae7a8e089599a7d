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
	"repro/internal/route"
	"repro/internal/vec"
)

// Config controls index construction.
type Config struct {
	// Ks and Kt fix the number of spatial/semantic clusters. When zero
	// they derive from the dataset size and F via the paper's rule
	// Ks = Kt = √|O|·c·f (§7.1). The paper's c yields thousands of
	// hybrid clusters at its 5M-35M scale; at laptop scale the same
	// objects-per-cluster ratio would leave too few clusters for the
	// pruning to show its shape, so c is calibrated to 1.0 here (the
	// default setup then yields ≈1,800 hybrid clusters at 20k objects —
	// the same order as the paper's 4,489). F keeps its role as the
	// granularity multiplier of Fig. 10.
	Ks, Kt int
	// F is the cluster-count multiplier f (default 0.3, the paper's
	// default; sweep 0.1–0.9 in Fig. 10).
	F float64
	// M is the PCA projection dimensionality (default 2).
	M int
	// SampleFraction is the share of objects used to fit K-Means and
	// PCA before assigning the rest (default 0.1, §7.1).
	SampleFraction float64
	// PCAMethod selects the PCA path (default Randomized, the paper's
	// choice).
	PCAMethod pca.Method
	// KMeansIters bounds the Lloyd iterations (default 25).
	KMeansIters int
	// Workers bounds the goroutines of every parallel build phase — both
	// K-Means, the PCA sketch, the projections, centroid means and
	// distances, element arrays, the arena layout, anchoring, the
	// router's labelling queries and the facade's keyword postings (0 =
	// GOMAXPROCS; the paper notes that K-Means and hybrid-cluster
	// formation parallelize readily, §7.5). The built index does not
	// depend on it, bit for bit; 1 runs the whole build on the calling
	// goroutine, for single-threaded measurements.
	Workers int
	// Seed makes construction deterministic.
	Seed uint64
	// DeltaCompactThreshold bounds how many write operations a published
	// snapshot's write overlay may absorb before the concurrent wrappers
	// fold it into a fresh flat base (see overlay.go). Zero selects
	// DefaultDeltaCompactThreshold; DeltaDisabled (-1) switches the write
	// path back to eager O(n) clones — the pre-overlay behavior, kept as
	// the measurable baseline. The core package itself only stores the
	// value (gob-tolerant: absent from older files, loading as 0); the
	// wrappers interpret it.
	DeltaCompactThreshold int
}

const (
	// DefaultDeltaCompactThreshold is the overlay size at which the
	// concurrent wrappers compact by default: large enough that the O(n)
	// fold amortizes to a small constant per write, small enough that the
	// extra per-query delta scan stays well under one cluster's work.
	DefaultDeltaCompactThreshold = 4096
	// DeltaDisabled as a DeltaCompactThreshold disables the write overlay.
	DeltaDisabled = -1
)

func (c *Config) applyDefaults(n int) {
	if c.F == 0 {
		c.F = 0.3
	}
	if c.Ks == 0 {
		c.Ks = clusterCount(n, c.F)
	}
	if c.Kt == 0 {
		c.Kt = clusterCount(n, c.F)
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

// DeriveClusterCount exposes the paper's cluster-count rule
// Ks = Kt = √n·f (§7.1, with the laptop-scale calibration of
// Config.Ks) for callers outside the build path — notably the sharded
// build, which derives every shard's cluster counts from the GLOBAL
// object count so per-shard pruning granularity matches the flat
// index's. f = 0 selects the default multiplier (0.3).
func DeriveClusterCount(n int, f float64) int {
	if f == 0 {
		f = 0.3
	}
	return clusterCount(n, f)
}

// clusterCount applies the paper's cluster-count rule with the
// laptop-scale calibration constant (see Config.Ks).
func clusterCount(n int, f float64) int {
	k := int(math.Round(math.Sqrt(float64(n)) * f))
	if k < 4 {
		k = 4
	}
	return k
}

// member is one object of a hybrid cluster with its true normalized
// distances to the cluster's two centroids.
type member struct {
	idx    uint32 // index into Index.objects
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
// array. The fields a cluster visit reads before it touches a row — the
// side pair, the array header, the head thresholds and the block base —
// come first and fill one 64-byte line; members, which only maintenance
// reads, follows.
type hybrid struct {
	s, t  int // side-cluster indices
	elems []element
	// headDs and headDt repeat elems[0]'s threshold pair (−Inf for an
	// empty array). The thresholds are non-increasing along the array,
	// so the head pair bounds every element: enterCluster tests the
	// Lemma 4.5 cut against it before anything else of the cluster is
	// loaded (see anchor.go).
	headDs, headDt float64
	// base is the storage position of elems[0] while the elements are
	// contiguous (elems[j].idx == base+j): the scan block is then a
	// window of the arenas and gathered is nil. Otherwise base is -1 and
	// gathered holds the block as a private copy (behind a pointer, nil
	// in the common case, so the hybrid stays small). Like the head
	// thresholds it is derived data — set by fillClusterBlock wherever
	// buildElems runs, shared under COW; read through Index.block (see
	// layout.go).
	base     int
	members  []member
	gathered *clusterBlock
}

// Index is a built CSSI/CSSIA index. Both query algorithms share one
// index: it keeps the semantic cluster representations in the original
// space (for CSSI and for intra-cluster pruning) and in the projected
// space (for CSSIA's inter-cluster pruning, §5.2).
type Index struct {
	cfg   Config
	space *metric.Space

	objects []dataset.Object
	deleted bitset
	live    int
	idToIdx map[uint32]uint32

	// delta, when non-nil, is this snapshot's mutable write overlay (see
	// overlay.go): Insert/Delete/Update land in it instead of the base
	// structures above, which then stay byte-for-byte shared with the
	// parent snapshot. Search runs base + delta; Compact folds the delta
	// into a fresh flat base. nil on flat indexes (Build/Load/Compact
	// products), whose mutations work in place as before.
	delta *overlayDelta

	// The embeddings and their PCA projections live in two contiguous
	// row-major float32 arenas (SoA, fixed stride): row i of vecArena is
	// the n-dimensional vector of objects[i] (objects[i].Vec is a view
	// into it), row i of projArena its m-dimensional projection;
	// xArena[i], yArena[i] repeat objects[i]'s location (derived, never
	// serialized). Storage order is cluster-major (see layout.go), so a
	// cluster scan reads each arena as one linear prefetchable run
	// instead of one pointer chase per row.
	dim            int // n: embedding dimensionality (vecArena stride)
	m              int // m: projection dimensionality (projArena stride)
	vecArena       []float32
	projArena      []float32
	xArena, yArena []float64
	// anchors holds one anchor id and distance per stored row, the
	// pre-kernel semantic lower bound of the scan loops (see anchor.go).
	// Never nil on a built index; derived, never serialized. The
	// pointee's slices follow the arenas' append-only/COW discipline;
	// CloneForWrite copies the struct header so clones grow it
	// independently.
	anchors *anchorArena

	// router is the learned cluster-routing model (nil on indexes too
	// small to train one; see route.go). Immutable after training:
	// snapshots and COW clones share it by pointer, rebuilds retrain it.
	// routerFold is its precomputed inference form (set with router by
	// setRouter); the query path scores with the fold only.
	router     *route.Model
	routerFold route.Folded

	pcaModel *pca.Model

	// Spatial side clusters.
	sCentX, sCentY []float64
	sRad           []float64
	sMembers       [][]uint32

	// Semantic side clusters: original-space and projected
	// representations.
	tCent     [][]float32
	tRad      []float64
	tCentProj [][]float32
	tRadProj  []float64
	tMembers  [][]uint32
	// tValid[t] records whether semantic cluster t had members when its
	// centroid was computed at (re)build time — i.e. whether tCent[t] and
	// tCentProj[t] are meaningful. Clusters that never received a member
	// carry zero centroids that must not attract inserts. Immutable
	// after build (incremental inserts never recompute centroids).
	tValid []bool

	sAssign, tAssign []int

	// clusters lists the non-empty hybrid clusters; grid is the dense
	// Ks×Kt directory over them — grid[s·Kt+t] is the cluster of side
	// pair (s,t), nil where no object populates the pair. Ks and Kt are
	// fixed after build, so the grid never resizes; it is derived (never
	// serialized) and copied whole by CloneForWrite.
	clusters []*hybrid
	grid     []*hybrid

	// UpdatesSinceBuild counts Insert/Delete operations since the last
	// (re)build; callers may use it to trigger Rebuild after heavy churn
	// (§6.2).
	UpdatesSinceBuild int
	// insertsSinceBuild and radiusExpansions drive DriftRatio, the
	// rebuild heuristic: an insert falling outside the build-time ball
	// of its nearest clusters signals that the data distribution has
	// moved away from the clustering (the condition §6.2 says warrants
	// a rebuild). The comparison uses the radii as of the last (re)build
	// — not the live, already-expanded ones — so the signal does not
	// saturate after the first outlier.
	builtSRad, builtTRadProj        []float64
	insertsSinceBuild, radiusDrifts int

	// scratchPool recycles per-query searchScratch buffers so the query
	// algorithms allocate nothing in steady state. A pointer (not a
	// value) because Rebuild replaces the whole Index value and
	// sync.Pool must not be copied. Snapshot clones share the pool.
	scratchPool *sync.Pool

	// cow is non-nil while this Index is a copy-on-write clone being
	// prepared for snapshot publication (see clone.go); nil on indexes
	// obtained from Build/Load, whose mutations stay in place.
	cow *cowState
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
	cfg.applyDefaults(ds.Len())
	x := &Index{
		cfg:         cfg,
		space:       space,
		objects:     append([]dataset.Object(nil), ds.Objects...),
		deleted:     newBitset(ds.Len()),
		live:        ds.Len(),
		idToIdx:     make(map[uint32]uint32, ds.Len()),
		scratchPool: newScratchPool(),
	}
	for i := range x.objects {
		if _, dup := x.idToIdx[x.objects[i].ID]; dup {
			return nil, fmt.Errorf("core: duplicate object ID %d", x.objects[i].ID)
		}
		x.idToIdx[x.objects[i].ID] = uint32(i)
	}

	// The objects keep viewing the caller's vectors until the cluster-major
	// order is known: layoutClusterMajor then writes the arena once, in
	// that order, and repoints every Vec at its row.
	x.dim = len(x.objects[0].Vec)
	for i := range x.objects {
		if len(x.objects[i].Vec) != x.dim {
			return nil, fmt.Errorf("core: object %d has vector dim %d, want %d",
				x.objects[i].ID, len(x.objects[i].Vec), x.dim)
		}
	}

	// --- Spatial clustering (Alg. 1 lines 2-4) ---
	phase := time.Now()
	spatialBuf := make([]float32, 2*len(x.objects))
	spatialPts := make([][]float32, len(x.objects))
	for i := range x.objects {
		p := spatialBuf[2*i : 2*i+2 : 2*i+2]
		p[0], p[1] = float32(x.objects[i].X), float32(x.objects[i].Y)
		spatialPts[i] = p
	}
	sres, err := kmeans.SampleFit(spatialPts, cfg.SampleFraction, kmeans.Config{
		K: cfg.Ks, MaxIters: cfg.KMeansIters, Seed: cfg.Seed, Workers: cfg.Workers,
	})
	if err != nil {
		return nil, fmt.Errorf("core: spatial clustering: %w", err)
	}
	x.sAssign = sres.Assign
	ks := len(sres.Centroids)
	x.sCentX = make([]float64, ks)
	x.sCentY = make([]float64, ks)
	x.sRad = make([]float64, ks)
	for c, cent := range sres.Centroids {
		x.sCentX[c], x.sCentY[c] = float64(cent[0]), float64(cent[1])
	}

	tm.Spatial = time.Since(phase)

	// --- PCA projection (Alg. 1 lines 5-6) ---
	phase = time.Now()
	vecs := make([][]float32, len(x.objects))
	for i := range x.objects {
		vecs[i] = x.objects[i].Vec
	}
	x.pcaModel, err = pca.Fit(sampleRows(vecs, cfg.SampleFraction, cfg.Seed), pca.Config{
		Components: cfg.M, Method: cfg.PCAMethod, Seed: cfg.Seed, Workers: cfg.Workers,
	})
	if err != nil {
		return nil, fmt.Errorf("core: PCA: %w", err)
	}
	// Project every vector into the projection arena (parallel: rows are
	// independent). proj holds temporary per-row views used only during
	// the remainder of construction; queries go through projAt.
	x.m = x.pcaModel.M()
	x.projArena = make([]float32, x.m*len(vecs))
	proj := make([][]float32, len(vecs))
	par.For(len(vecs), cfg.Workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dst := x.projArena[i*x.m : (i+1)*x.m : (i+1)*x.m]
			x.pcaModel.TransformInto(dst, vecs[i])
			proj[i] = dst
		}
	})
	space.SetProjectedNormalizerArena(x.projArena, x.m)

	tm.PCA = time.Since(phase)

	// --- Semantic clustering on the projections (Alg. 1 lines 7-9) ---
	phase = time.Now()
	tres, err := kmeans.SampleFit(proj, cfg.SampleFraction, kmeans.Config{
		K: cfg.Kt, MaxIters: cfg.KMeansIters, Seed: cfg.Seed + 1, Workers: cfg.Workers,
	})
	if err != nil {
		return nil, fmt.Errorf("core: semantic clustering: %w", err)
	}
	tm.Semantic = time.Since(phase)
	phase = time.Now()
	x.tAssign = tres.Assign
	kt := len(tres.Centroids)
	x.tCent = make([][]float32, kt)
	x.tRad = make([]float64, kt)
	x.tCentProj = make([][]float32, kt)
	x.tRadProj = make([]float64, kt)
	x.tValid = make([]bool, kt)
	x.grid = make([]*hybrid, ks*kt)

	// Side membership lists.
	x.sMembers = membersByAssign(x.sAssign, ks)
	x.tMembers = membersByAssign(x.tAssign, kt)

	// Semantic cluster representations: the original-space centroid is
	// the mean of the members' n-dimensional vectors (§4.1); the
	// projected centroid is the mean of their projections (§5.2). Each
	// cluster's means are its own sums, in member order (parallel over
	// clusters).
	par.For(kt, cfg.Workers, func(lo, hi int) {
		for t := lo; t < hi; t++ {
			ms := x.tMembers[t]
			cent := make([]float32, x.dim)
			centP := make([]float32, x.m)
			x.tValid[t] = len(ms) > 0
			if len(ms) > 0 {
				rows := make([][]float32, len(ms))
				rowsP := make([][]float32, len(ms))
				for i, mi := range ms {
					rows[i] = x.objects[mi].Vec
					rowsP[i] = proj[mi]
				}
				vec.Mean(cent, rows)
				vec.Mean(centP, rowsP)
			}
			x.tCent[t] = cent
			x.tCentProj[t] = centP
		}
	})

	// Per-object distances to the assigned centroids (parallel; these
	// feed both the radii and the hybrid-cluster member records).
	n := len(x.objects)
	dsAll := make([]float64, n)
	dtAll := make([]float64, n)
	dpAll := make([]float64, n)
	par.For(n, cfg.Workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dsAll[i] = x.spatialToCent(uint32(i), x.sAssign[i])
			dtAll[i] = x.semanticToCent(uint32(i), x.tAssign[i])
			dpAll[i] = x.projToCent(uint32(i), x.tAssign[i])
		}
	})
	// Radii in all representations (parallel max folds).
	x.sRad = maxPerPartition(n, ks, cfg.Workers,
		func(i int) int { return x.sAssign[i] },
		func(i int) float64 { return dsAll[i] })
	x.tRad = maxPerPartition(n, kt, cfg.Workers,
		func(i int) int { return x.tAssign[i] },
		func(i int) float64 { return dtAll[i] })
	x.tRadProj = maxPerPartition(n, kt, cfg.Workers,
		func(i int) int { return x.tAssign[i] },
		func(i int) float64 { return dpAll[i] })

	// --- Hybrid clusters and their arrays (Alg. 1 lines 10-14) ---
	x.formHybrids(dsAll, dtAll)
	// Build each cluster's element array, renumber storage into the
	// order those arrays dictate, then derive the coordinate arena and
	// anchor the rows over the final order:
	// every cluster's scan block is a window of the arenas.
	clusters := x.clusters
	par.For(len(clusters), cfg.Workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			clusters[i].elems = buildElems(clusters[i].members)
		}
	})
	if err := x.layoutClusterMajor(); err != nil {
		return nil, fmt.Errorf("core: %w", err) // unreachable: Build lists every object once
	}
	x.fillCoordArena()
	x.anchors = x.buildAnchors(anchors)
	for _, c := range clusters {
		x.fillClusterBlock(c)
	}
	// Snapshot the built radii for the DriftRatio heuristic.
	x.builtSRad = append([]float64(nil), x.sRad...)
	x.builtTRadProj = append([]float64(nil), x.tRadProj...)
	tm.Hybrid = time.Since(phase)
	// Train the learned cluster router last: its labeling self-queries
	// are ordinary exact searches, which need the finished index.
	phase = time.Now()
	x.setRouter(x.trainRouter())
	tm.Route = time.Since(phase)
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
// in ascending order. A counting pass sizes the lists, which are windows
// of one buffer capped at their own length: a later append reallocates
// instead of running into the neighbour. Empty clusters keep a nil list.
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

// formHybrids is the bulk form of addToHybrid over every object, with
// precomputed centroid distances: clusters appear in the directory in
// order of their first object and list their members in ascending
// position, as one addToHybrid per object would leave them, but a
// counting pass sizes the member lists (windows of one buffer, capped
// like membersByAssign's) instead of append growing each.
func (x *Index) formHybrids(ds, dt []float64) {
	counts := make([]int, len(x.grid))
	for i := range x.objects {
		counts[x.cell(x.sAssign[i], x.tAssign[i])]++
	}
	buf := make([]member, len(x.objects))
	off := 0
	for i := range x.objects {
		s, t := x.sAssign[i], x.tAssign[i]
		cell := x.cell(s, t)
		c := x.grid[cell]
		if c == nil {
			n := counts[cell]
			c = &hybrid{s: s, t: t, members: buf[off : off : off+n]}
			off += n
			x.grid[cell] = c
			x.clusters = append(x.clusters, c)
		}
		c.members = append(c.members, member{idx: uint32(i), ds: ds[i], dt: dt[i]})
	}
}

// spatialToCent returns the normalized spatial distance from object idx
// to spatial centroid s.
func (x *Index) spatialToCent(idx uint32, s int) float64 {
	o := &x.objects[idx]
	return x.space.SpatialXY(o.X, o.Y, x.sCentX[s], x.sCentY[s])
}

// semanticToCent returns the normalized original-space semantic distance
// from object idx to semantic centroid t.
func (x *Index) semanticToCent(idx uint32, t int) float64 {
	return x.space.SemanticVec(x.objects[idx].Vec, x.tCent[t])
}

// projToCent returns the normalized projected-space distance from object
// idx to the projected semantic centroid t.
func (x *Index) projToCent(idx uint32, t int) float64 {
	return x.space.SemanticProjVec(x.projAt(idx), x.tCentProj[t])
}

// vecAt returns the arena row holding the embedding of the object at
// storage position i (identical to objects[i].Vec).
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

// addToHybrid places object idx into its hybrid cluster, computing its
// centroid distances. It does not rebuild the element array.
func (x *Index) addToHybrid(idx uint32) *hybrid {
	s, t := x.sAssign[idx], x.tAssign[idx]
	cell := &x.grid[x.cell(s, t)]
	c := *cell
	if c == nil {
		c = &hybrid{s: s, t: t}
		*cell = c
		x.clusters = append(x.clusters, c)
		x.markOwnedHybrid(c)
	} else {
		c = x.cowHybrid(c)
	}
	c.members = append(c.members, member{idx: idx, ds: x.spatialToCent(idx, s), dt: x.semanticToCent(idx, t)})
	return c
}

// cell returns the grid position of side pair (s,t).
func (x *Index) cell(s, t int) int { return s*len(x.tCent) + t }

// baseElems returns the number of elements the hybrid clusters hold in
// total: the live objects, or with a write overlay the base's own (its
// tombstoned members stay listed, the overlay's inserts are not).
func (x *Index) baseElems() int64 {
	n := x.live
	if d := x.delta; d != nil {
		n += d.nTombs - d.liveCount
	}
	return int64(n)
}

// Len returns the number of live (non-deleted) objects.
func (x *Index) Len() int { return x.live }

// Dim returns the embedding dimensionality the index was built with —
// the vector length every query and inserted object must carry.
func (x *Index) Dim() int { return x.dim }

// NumClusters returns the number of non-empty hybrid clusters.
func (x *Index) NumClusters() int { return len(x.clusters) }

// Config returns the effective configuration (with defaults applied).
func (x *Index) Config() Config { return x.cfg }

// PCA exposes the fitted projection model (used by the harness to
// project query vectors for analysis).
func (x *Index) PCA() *pca.Model { return x.pcaModel }

// Space exposes the metric space the index computes distances in. The
// snapshot facade reads it because RebuildFresh gives the replacement
// index its own space copy.
func (x *Index) Space() *metric.Space { return x.space }

// Object returns the object stored at the given ID, if it is live.
// With a write overlay present the delta wins: an overlay insert
// shadows nothing (the ID was free), an overlay tombstone hides the
// base object, and an overlay update is a tombstone plus an insert.
func (x *Index) Object(id uint32) (*dataset.Object, bool) {
	if d := x.delta; d != nil {
		if pos, ok := d.idToPos.get(id); ok {
			return &d.objs[pos], true
		}
	}
	idx, ok := x.idToIdx[id]
	if !ok || x.deleted.get(idx) {
		return nil, false
	}
	if d := x.delta; d != nil && d.tombs.get(idx) {
		return nil, false
	}
	return &x.objects[idx], true
}
