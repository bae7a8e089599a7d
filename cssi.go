// Package cssi is the public API of this repository: an implementation of
// CSSI and CSSIA, the exact and approximate cluster-based indexes for
// semantic similarity search over spatio-textual data from
//
//	Theodoropoulos, Nørvåg, Doulkeridis:
//	"Efficient Semantic Similarity Search over Spatio-textual Data",
//	EDBT 2024.
//
// An Index answers k-nearest-neighbor queries under the weighted distance
// d(q,o) = λ·ds(q,o) + (1−λ)·dt(q,o), where ds is normalized Euclidean
// distance between locations and dt is normalized Euclidean distance
// between document embeddings. λ is chosen per query.
//
// Basic use:
//
//	ds, _ := cssi.GenerateDataset(cssi.DatasetConfig{Kind: cssi.TwitterLike, Size: 10000})
//	idx, _ := cssi.Build(ds, cssi.Options{})
//	q := ds.Objects[0]
//	exact, _ := idx.Do(cssi.SearchRequest{Query: &q, K: 10, Lambda: 0.5})             // provably exact (CSSI)
//	fast, _ := idx.Do(cssi.SearchRequest{Query: &q, K: 10, Lambda: 0.5, Approx: true}) // approximate (CSSIA)
//
// The internal packages additionally provide every baseline the paper
// evaluates against (linear scan, spatial R-tree, S²R-tree, DESIRE,
// RR*-tree) and a harness regenerating each table and figure; see
// DESIGN.md and the cssibench command.
package cssi

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/keyword"
	"repro/internal/knn"
	"repro/internal/metric"
	"repro/internal/obs"
	"repro/internal/pca"
)

// Object is a spatio-textual object: a location in [0,1]², the raw text,
// and its dense semantic vector.
type Object = dataset.Object

// Dataset is a collection of objects plus the embedding model used to
// encode query text.
type Dataset = dataset.Dataset

// Result is one k-NN answer: the object ID and its distance to the query.
type Result = knn.Result

// Stats reports the work done by one or more queries: visited objects,
// objects skipped by inter-/intra-cluster pruning, and per-space distance
// calculation counts.
type Stats = metric.Stats

// ExplainStats is the per-query search-internals trace
// SearchRequest.Explain fills: the Stats work counters plus clusters
// ordered, early-abandon
// kernel exits, the final k-NN bound, and per-phase wall time. See
// internal/obs for the derived read-efficiency and prune-ratio metrics.
type ExplainStats = obs.SearchStats

// SearchTrace is one explained query across the scatter/gather path:
// one SearchSpan per shard plus their aggregate, tied together by a
// request ID.
type SearchTrace = obs.Trace

// SearchSpan is one shard's slice of an explained query.
type SearchSpan = obs.ShardSpan

// HeapBytes is an index's heap ledger: the bytes each of its structures
// holds (see ShardStat.Heap).
type HeapBytes = core.HeapBytes

// DatasetKind selects a synthetic generator family.
type DatasetKind = dataset.Kind

// Generator kinds. TwitterLike mimics geo-tagged tweets (broad spatial
// spread, topics independent of location); YelpLike mimics business
// reviews (11 tight metropolitan clusters, category-correlated text).
const (
	TwitterLike = dataset.TwitterLike
	YelpLike    = dataset.YelpLike
)

// DatasetConfig configures GenerateDataset.
type DatasetConfig = dataset.GenConfig

// GenerateDataset produces a deterministic synthetic spatio-textual
// dataset (the stand-in for the paper's Twitter/Yelp corpora; see
// DESIGN.md §4).
func GenerateDataset(cfg DatasetConfig) (*Dataset, error) {
	return dataset.Generate(cfg)
}

// Options configures Build. The zero value reproduces the paper's default
// setup: f = 0.3, m = 2, a 10% clustering sample, and cluster counts
// derived from the dataset size.
type Options struct {
	// Ks and Kt fix the spatial/semantic cluster counts; zero derives
	// them at every build — Build, each BuildSharded shard, Rebuild —
	// from the objects that build indexes and F (§7.1; the calibration
	// is DESIGN §3's).
	Ks, Kt int
	// F is the cluster-count multiplier f (default 0.3); it scales
	// derived counts only.
	F float64
	// M is the PCA projection dimensionality (default 2).
	M int
	// SampleFraction is the share of objects used to fit K-Means and
	// PCA (default 0.1).
	SampleFraction float64
	// AngularSemantic replaces the Euclidean semantic distance with the
	// angular distance (the metric counterpart of cosine similarity).
	// The paper's bounds hold for arbitrary metrics (§4.2), so CSSI
	// stays exact; only the semantic notion of "close" changes.
	AngularSemantic bool
	// DeltaCompactThreshold bounds the write overlay every write lands
	// in: once it buffers this many write ops, a bare Index folds it into
	// a fresh flat base within the write that reached the threshold, and
	// a ShardedIndex shard does so in the background. Zero or negative
	// means DefaultDeltaCompactThreshold.
	DeltaCompactThreshold int
	// Seed makes index construction deterministic.
	Seed uint64
}

// DefaultDeltaCompactThreshold is the overlay compaction threshold used
// when Options.DeltaCompactThreshold is not positive.
const DefaultDeltaCompactThreshold = core.DefaultDeltaCompactThreshold

// Index answers semantic spatio-textual k-NN queries. Obtain one from
// Build. An Index is safe for concurrent Do/DoBatch calls;
// Insert/Delete/Update require external synchronization. Writes land in
// a write overlay over the built base, which the index folds into a
// fresh base once it holds DeltaCompactThreshold ops (see Insert).
type Index struct {
	core  *core.Index
	space *metric.Space
	// kw is the optional inverted keyword index (EnableKeywordFilter).
	kw *keyword.Filter
	// sink is the optional always-on trace collector (SetTraceSink) of
	// a bare index; ShardedFrom adopts it, the snapshots a ShardedIndex
	// publishes carry none.
	sink *obs.Sink
	// snapID is the publication sequence number stamped by
	// shardCell.publish — the ResponseMeta.SnapshotID of answers
	// this snapshot serves. 0 on an index never published.
	snapID uint64
}

// coreConfig translates the public options into the internal build
// configuration (shared by Build and the per-shard builds of
// BuildSharded).
func (o Options) coreConfig() core.Config {
	return core.Config{
		Ks: o.Ks, Kt: o.Kt, F: o.F, M: o.M,
		SampleFraction:        o.SampleFraction,
		PCAMethod:             pca.Randomized,
		DeltaCompactThreshold: o.DeltaCompactThreshold,
		Seed:                  o.Seed,
	}
}

// Build constructs a CSSI/CSSIA index over the dataset (paper Alg. 1).
func Build(ds *Dataset, opts Options) (*Index, error) {
	if ds == nil || ds.Len() == 0 {
		return nil, fmt.Errorf("cssi: empty dataset")
	}
	semKind := metric.EuclideanSemantic
	if opts.AngularSemantic {
		semKind = metric.AngularSemantic
	}
	space, err := metric.NewSpaceWithSemantic(ds, semKind)
	if err != nil {
		return nil, err
	}
	c, err := core.Build(ds, space, opts.coreConfig())
	if err != nil {
		return nil, err
	}
	return &Index{core: c, space: space}, nil
}

// Insert adds a new object incrementally (paper §6.2): it joins the
// nearest spatial and semantic clusters in the index's write overlay.
// The write that brings the overlay to DeltaCompactThreshold ops also
// folds it (Compact): every row then sits in its clusters' arrays, the
// radii cover exactly the live rows, and every row is anchored.
func (x *Index) Insert(o Object) error {
	return x.foldAfter(x.insert(o))
}

// Delete removes the object with the given ID (paper §6.2), folding the
// overlay as Insert does.
func (x *Index) Delete(id uint32) error {
	return x.foldAfter(x.delete(id))
}

// Update replaces the stored object carrying o's ID — a deletion followed
// by an insertion, as the paper defines updates — folding the overlay as
// Insert does.
func (x *Index) Update(o Object) error {
	return x.foldAfter(x.update(o))
}

// foldAfter folds the overlay when err is nil and the write that
// returned it brought the overlay to the threshold.
func (x *Index) foldAfter(err error) error {
	if err != nil || int64(x.DeltaOps()) < resolveDeltaThreshold(x.core.Config().DeltaCompactThreshold) {
		return err
	}
	nc, err := x.core.Compact()
	if err != nil {
		return err
	}
	x.core = nc
	return nil
}

// insert is Insert without the fold: the write a shard applies under
// its next snapshot's header, whose fold runs in the background.
func (x *Index) insert(o Object) error {
	if err := x.core.Insert(o); err != nil {
		return err
	}
	if x.kw != nil {
		x.kw.Add(o.ID, o.Text)
	}
	return nil
}

// delete is Delete without the fold.
func (x *Index) delete(id uint32) error {
	var docText string
	if x.kw != nil {
		if o, ok := x.core.Object(id); ok {
			docText = o.Text
		}
	}
	if err := x.core.Delete(id); err != nil {
		return err
	}
	if x.kw != nil {
		x.kw.Remove(id, docText)
	}
	return nil
}

// update is Update without the fold.
func (x *Index) update(o Object) error {
	if err := x.delete(o.ID); err != nil {
		return err
	}
	return x.insert(o)
}

// Rebuild reconstructs the index from scratch over the live objects — the
// remedy the paper prescribes after heavy distribution drift (§6.2) —
// and swaps the result in (see rebuildFresh). An enabled keyword filter
// is rebuilt alongside; the installed trace sink and the snapshot ID
// stay.
func (x *Index) Rebuild() error {
	fresh, err := x.rebuildFresh()
	if err != nil {
		return err
	}
	fresh.sink, fresh.snapID = x.sink, x.snapID
	*x = *fresh
	return nil
}

// cloneWithDelta returns a copy of x's header for shardCell to write
// and publish: its writes are invisible through x (see
// core.Index.CloneWithDelta). An enabled keyword filter is cloned here
// and in compact, sharing every directory bucket until a write copies
// the few it touches.
func (x *Index) cloneWithDelta() *Index {
	nx := &Index{core: x.core.CloneWithDelta(), space: x.space}
	if x.kw != nil {
		nx.kw = x.kw.Clone()
	}
	return nx
}

// compact folds the snapshot's write overlay into a fresh flat core
// index (a no-op returning x when no overlay ops are buffered). An
// enabled keyword filter is cloned, not shared: the background
// compaction path replays late writes onto the returned index, and
// those replays must not reach a filter that published snapshots still
// serve from.
func (x *Index) compact() (*Index, error) {
	nc, err := x.core.Compact()
	if err != nil {
		return nil, err
	}
	if nc == x.core {
		return x, nil
	}
	nx := &Index{core: nc, space: x.space}
	if x.kw != nil {
		nx.kw = x.kw.Clone()
	}
	return nx, nil
}

// DeltaOps reports the number of write operations buffered in this
// snapshot's delta overlay — 0 for flat snapshots.
func (x *Index) DeltaOps() int { return x.core.DeltaOps() }

// rebuildFresh reconstructs the index from scratch over the live
// objects without touching x (or the metric space x's readers use) and
// returns the replacement — the building block of non-blocking rebuild.
// A keyword filter, when enabled, is rebuilt alongside.
func (x *Index) rebuildFresh() (*Index, error) {
	freshCore, err := x.core.RebuildFresh()
	if err != nil {
		return nil, err
	}
	fresh := &Index{core: freshCore, space: freshCore.Space()}
	if x.kw != nil {
		fresh.EnableKeywordFilter()
	}
	return fresh, nil
}

// CheckInvariants verifies the structural invariants the correctness
// proofs rest on (cluster containment, conservative thresholds, radius
// coverage, projection soundness). Tests use it to assert that every
// published snapshot is complete and coherent; production code never
// needs it.
func (x *Index) CheckInvariants() error { return x.core.CheckInvariants() }

// UpdatesSinceBuild reports how many Insert/Delete operations have been
// applied since the last (re)build, as a rebuild heuristic for callers.
func (x *Index) UpdatesSinceBuild() int { return x.core.UpdatesSinceBuild }

// DriftRatio reports the fraction of post-build inserts that landed
// outside the build-time cluster balls — near zero while the incoming
// data follows the built distribution, rising when it drifts. Sustained
// high values are the §6.2 signal to Rebuild.
func (x *Index) DriftRatio() float64 { return x.core.DriftRatio() }

// UnanchoredRows counts the live objects inserted since the last
// Build, Load, compaction or Rebuild — the write overlay's live inserts:
// they scan without the anchor bound until the next compaction or
// rebuild anchors them. Beside DriftRatio it is the second rebuild
// signal — drift says the clusters stopped fitting, this says how many
// rows lost their cheapest filter. Always 0 under AngularSemantic, where
// no row has an anchor.
func (x *Index) UnanchoredRows() int { return x.core.UnanchoredRows() }

// Len returns the number of live objects.
func (x *Index) Len() int { return x.core.Len() }

// Dim returns the embedding dimensionality the index was built with —
// every query vector and inserted object must carry exactly this length.
func (x *Index) Dim() int { return x.core.Dim() }

// NumClusters returns the number of non-empty hybrid clusters.
func (x *Index) NumClusters() int { return x.core.NumClusters() }

// Object returns a copy of the live object with the given ID. Its Vec
// views the index's vector storage and must not be written.
func (x *Index) Object(id uint32) (*Object, bool) {
	o, ok := x.core.Object(id)
	if !ok {
		return nil, false
	}
	return &o, true
}

// ErrorRate computes the paper's result-error metric for an approximate
// result set against the exact one: |exact \ approx| / k (§7.1).
func ErrorRate(exact, approx []Result) float64 { return knn.ErrorRate(exact, approx) }
