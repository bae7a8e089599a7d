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
//	exact := idx.Search(&q, 10, 0.5)          // provably exact (CSSI)
//	fast := idx.SearchApprox(&q, 10, 0.5)     // approximate (CSSIA)
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
	// them from the dataset size and F (§7.1).
	Ks, Kt int
	// F is the cluster-count multiplier f (default 0.3).
	F float64
	// M is the PCA projection dimensionality (default 2).
	M int
	// SampleFraction is the share of objects used to fit K-Means and
	// PCA (default 0.1).
	SampleFraction float64
	// ExactPCA switches PCA from the randomized-SVD path (the paper's
	// choice, default) to the exact covariance eigendecomposition.
	ExactPCA bool
	// AngularSemantic replaces the Euclidean semantic distance with the
	// angular distance (the metric counterpart of cosine similarity).
	// The paper's bounds hold for arbitrary metrics (§4.2), so CSSI
	// stays exact; only the semantic notion of "close" changes.
	AngularSemantic bool
	// DeltaCompactThreshold bounds the write overlay that ShardedIndex
	// snapshots carry: once a snapshot accumulates this
	// many overlay write ops, a background compaction folds the delta
	// into a fresh flat snapshot. Zero means DefaultDeltaCompactThreshold.
	// DeltaDisabled (-1) turns the overlay off entirely, so every write
	// pays the eager copy-on-write clone instead.
	DeltaCompactThreshold int
	// Seed makes index construction deterministic.
	Seed uint64
}

// DefaultDeltaCompactThreshold is the overlay compaction threshold used
// when Options.DeltaCompactThreshold is zero.
const DefaultDeltaCompactThreshold = core.DefaultDeltaCompactThreshold

// DeltaDisabled disables the write overlay when assigned to
// Options.DeltaCompactThreshold: every write clones eagerly.
const DeltaDisabled = core.DeltaDisabled

// DefaultRouteTarget is the routed approximate mode's probability-mass
// coverage target used when SearchRequest.RouteTarget is zero or
// negative.
const DefaultRouteTarget = core.DefaultRouteTarget

// Index answers semantic spatio-textual k-NN queries. Obtain one from
// Build. An Index is safe for concurrent Search/SearchApprox calls;
// Insert/Delete/Update require external synchronization.
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
	method := pca.Randomized
	if o.ExactPCA {
		method = pca.Exact
	}
	return core.Config{
		Ks: o.Ks, Kt: o.Kt, F: o.F, M: o.M,
		SampleFraction:        o.SampleFraction,
		PCAMethod:             method,
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

// Search returns the exact k nearest neighbors of q under
// d = λ·ds + (1−λ)·dt (the CSSI algorithm, provably correct per
// Lemma 4.7) — the quickstart form of Do, which adds every per-request
// knob (work counters, result buffers, explain, budgets). A nil or
// wrong-dimension query, k < 1, or λ outside [0,1] panics; use Do to
// get them as typed errors.
func (x *Index) Search(q *Object, k int, lambda float64) []Result {
	return mustResults(x.Do(SearchRequest{Query: q, K: k, Lambda: lambda}))
}

// SearchApprox returns approximate k nearest neighbors with the CSSIA
// algorithm — typically 2-3× faster than Search with under 1% result
// error (paper §5, §7): Do with SearchRequest.Approx, panicking like
// Search on invalid input.
func (x *Index) SearchApprox(q *Object, k int, lambda float64) []Result {
	return mustResults(x.Do(SearchRequest{Query: q, K: k, Lambda: lambda, Approx: true}))
}

func checkQuery(q *Object, k int, lambda float64) {
	if q == nil {
		panic("cssi: nil query")
	}
	if k < 1 {
		panic("cssi: k must be >= 1")
	}
	if lambda < 0 || lambda > 1 {
		panic(fmt.Sprintf("cssi: lambda %v out of [0,1]", lambda))
	}
}

// checkQueryVec panics with a descriptive message when the query vector
// does not match the index's embedding dimensionality (the distance
// kernels would otherwise panic deep inside the hot path). Like
// checkQuery it guards the range/box queries; k-NN requests are
// validated by SearchRequest.validate.
func (x *Index) checkQueryVec(q *Object) {
	if len(q.Vec) != x.core.Dim() {
		panic(fmt.Sprintf("cssi: query vector dim %d, index expects %d", len(q.Vec), x.core.Dim()))
	}
}

// Insert adds a new object incrementally (paper §6.2): it joins the
// nearest spatial and semantic clusters, radii expand if needed, and only
// the affected hybrid cluster's array is rebuilt.
func (x *Index) Insert(o Object) error {
	if err := x.core.Insert(o); err != nil {
		return err
	}
	if x.kw != nil {
		x.kw.Add(o.ID, o.Text)
	}
	return nil
}

// Delete removes the object with the given ID (paper §6.2).
func (x *Index) Delete(id uint32) error {
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

// Update replaces the stored object carrying o's ID — a deletion followed
// by an insertion, as the paper defines updates.
func (x *Index) Update(o Object) error {
	if err := x.Delete(o.ID); err != nil {
		return err
	}
	return x.Insert(o)
}

// Rebuild reconstructs the index from scratch over the live objects — the
// remedy the paper prescribes after heavy distribution drift (§6.2).
// An enabled keyword filter is rebuilt alongside.
func (x *Index) Rebuild() error {
	if err := x.core.Rebuild(); err != nil {
		return err
	}
	if x.kw != nil {
		x.EnableKeywordFilter()
	}
	return nil
}

// cloneForWrite returns a write-isolated copy of the whole facade —
// core index plus keyword filter — for the snapshot-publication path of
// shardCell: mutations applied to the clone are invisible through
// x, so lock-free readers can keep using x until the clone is published
// in its place.
func (x *Index) cloneForWrite() *Index {
	nx := &Index{core: x.core.CloneForWrite(), space: x.space}
	if x.kw != nil {
		nx.kw = x.kw.Clone()
	}
	return nx
}

// cloneWithDelta returns a write-isolated copy whose core carries a
// mutable delta overlay over the shared immutable base: applying a
// write costs what the write touches instead of the O(n) directory
// copies of cloneForWrite. An enabled keyword filter is cloned the same
// way on all three paths (this one, cloneForWrite, compact): the clone
// shares every directory bucket and copies the few a write touches.
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
// compaction path replays late writes directly onto the returned index,
// and those replays must not reach a filter that published snapshots
// still serve from.
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
// snapshot's delta overlay — 0 for flat snapshots and for indexes built
// with DeltaDisabled.
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

// RouterTrained reports whether the index carries a trained cluster
// router. Training is skipped on tiny indexes (too few objects or
// clusters to learn from) and Route requests then silently fall back to
// the unrouted algorithms.
func (x *Index) RouterTrained() bool { return x.core.Router() != nil }

// UpdatesSinceBuild reports how many Insert/Delete operations have been
// applied since the last (re)build, as a rebuild heuristic for callers.
func (x *Index) UpdatesSinceBuild() int { return x.core.UpdatesSinceBuild }

// DriftRatio reports the fraction of post-build inserts that landed
// outside the build-time cluster balls — near zero while the incoming
// data follows the built distribution, rising when it drifts. Sustained
// high values are the §6.2 signal to Rebuild.
func (x *Index) DriftRatio() float64 { return x.core.DriftRatio() }

// UnanchoredRows counts the live objects inserted since the last
// Build/Rebuild/Load (write-overlay inserts included): they scan without
// the anchor bound until the next rebuild anchors them. Beside
// DriftRatio it is the second rebuild signal — drift says the clusters
// stopped fitting, this says how many rows lost their cheapest filter.
func (x *Index) UnanchoredRows() int { return x.core.UnanchoredRows() }

// Len returns the number of live objects.
func (x *Index) Len() int { return x.core.Len() }

// Dim returns the embedding dimensionality the index was built with —
// every query vector and inserted object must carry exactly this length.
func (x *Index) Dim() int { return x.core.Dim() }

// NumClusters returns the number of non-empty hybrid clusters.
func (x *Index) NumClusters() int { return x.core.NumClusters() }

// Object returns the live object with the given ID.
func (x *Index) Object(id uint32) (*Object, bool) { return x.core.Object(id) }

// ErrorRate computes the paper's result-error metric for an approximate
// result set against the exact one: |exact \ approx| / k (§7.1).
func ErrorRate(exact, approx []Result) float64 { return knn.ErrorRate(exact, approx) }
