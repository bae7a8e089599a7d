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
	// DeltaCompactThreshold bounds each shard's write overlay, which
	// every write lands in: the write that brings it to this many ops
	// starts a background fold into a fresh flat base, and the writes
	// that arrive meanwhile are replayed into the fold's result. Zero or
	// negative means DefaultDeltaCompactThreshold.
	DeltaCompactThreshold int
	// Seed makes index construction deterministic.
	Seed uint64
}

// DefaultDeltaCompactThreshold is the overlay compaction threshold used
// when Options.DeltaCompactThreshold is not positive.
const DefaultDeltaCompactThreshold = core.DefaultDeltaCompactThreshold

// snapshot is what a shard publishes: a core snapshot header, the
// metric space its reads use, the optional inverted keyword index
// (EnableKeywordFilter) and the publication sequence number. A
// published snapshot is never written again: the cell writes a copy's
// overlay (cloneWithDelta, applyOp) or replaces it (compact,
// rebuildFresh).
type snapshot struct {
	core  *core.Index
	space *metric.Space
	kw    *keyword.Filter
	// snapID is the publication sequence number stamped by
	// shardCell.publish — the ResponseMeta.SnapshotID of answers this
	// snapshot serves.
	snapID uint64
	// hdr holds core on a snapshot cloneWithDelta made, so that a
	// published write allocates one object (see shardCell).
	hdr core.Index
}

// coreConfig translates the public options into the internal build
// configuration of every shard.
func (o Options) coreConfig() core.Config {
	return core.Config{
		Ks: o.Ks, Kt: o.Kt, F: o.F, M: o.M,
		SampleFraction:        o.SampleFraction,
		PCAMethod:             pca.Randomized,
		DeltaCompactThreshold: o.DeltaCompactThreshold,
		Seed:                  o.Seed,
	}
}

// insert adds o to the snapshot's write overlay (paper §6.2: it joins
// the nearest spatial and semantic clusters) and to the keyword filter.
func (x *snapshot) insert(o Object) error {
	if err := x.core.Insert(o); err != nil {
		return err
	}
	if x.kw != nil {
		x.kw.Add(o.ID, o.Text)
	}
	return nil
}

// delete removes the object with the given ID (paper §6.2).
func (x *snapshot) delete(id uint32) error {
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

// cloneWithDelta returns a copy of x's header for shardCell to write
// and publish: its writes are invisible through x (the core header is
// copied by value, as core.Index.CloneWithDelta copies it, into the
// snapshot's own hdr). An enabled keyword filter is cloned here
// and in compact, sharing every directory bucket until a write copies
// the few it touches.
func (x *snapshot) cloneWithDelta() *snapshot {
	nx := &snapshot{hdr: *x.core, space: x.space}
	nx.core = &nx.hdr
	if x.kw != nil {
		nx.kw = x.kw.Clone()
	}
	return nx
}

// compact folds the snapshot's write overlay into a fresh flat core
// index (a no-op returning x when no overlay ops are buffered). An
// enabled keyword filter is cloned, not shared: the background
// compaction path replays late writes onto the returned snapshot, and
// those replays must not reach a filter that published snapshots still
// serve from.
func (x *snapshot) compact() (*snapshot, error) {
	nc, err := x.core.Compact()
	if err != nil {
		return nil, err
	}
	if nc == x.core {
		return x, nil
	}
	nx := &snapshot{core: nc, space: x.space}
	if x.kw != nil {
		nx.kw = x.kw.Clone()
	}
	return nx, nil
}

// rebuildFresh reconstructs the snapshot from scratch over the live
// objects — the remedy the paper prescribes after heavy distribution
// drift (§6.2) — without touching x (or the metric space x's readers
// use), and returns the replacement. A keyword filter, when enabled,
// is rebuilt alongside.
func (x *snapshot) rebuildFresh() (*snapshot, error) {
	freshCore, err := x.core.RebuildFresh()
	if err != nil {
		return nil, err
	}
	fresh := &snapshot{core: freshCore, space: freshCore.Space()}
	if x.kw != nil {
		fresh.enableKeywordFilter()
	}
	return fresh, nil
}

// ErrorRate computes the paper's result-error metric for an approximate
// result set against the exact one: |exact \ approx| / k (§7.1).
func ErrorRate(exact, approx []Result) float64 { return knn.ErrorRate(exact, approx) }
