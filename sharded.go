package cssi

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/metric"
	"repro/internal/obs"
	"repro/internal/rescache"
)

// ShardedIndex is the snapshot-published serving surface: one logical
// CSSI index partitioned across P independent shards, each a shardCell
// owning a disjoint subset of the objects (assignment by a hash of the
// object ID, so an ID's shard never changes). P = 1 (ShardedFrom, or
// BuildSharded with one shard) is the plain concurrent index — the same
// requests, writer protocol, trace sink and result cache, with nothing
// to route or merge. A bare Index is safe for concurrent searches only;
// use this type when writers run alongside readers (the HTTP server in
// internal/server holds nothing else). What P > 1 buys is writer
// concurrency and bounded background work: writes to different shards
// do not serialize against each other at all, and a compaction or
// rebuild folds or reconstructs one shard's objects, not the corpus.
//
//   - Reads are ONE READ: an exact read over the P shard snapshots has
//     one k-NN heap and visits the shards in order, each pruning against
//     the k-th distance of everything read before it
//     (core.SearchShardsInto; see execute). With a second scheduler
//     thread it is one job of the standing stripe helper: caller and
//     helper claim whole shards from one cursor, split the last one's
//     frontier in chunks, and push into the one heap under its mutex —
//     no goroutine per read, no per-stripe list, no merge. A read that
//     asks for its work counters stays one stripe. Because every shard
//     shares the same distance normalizers (computed once over the full
//     dataset at BuildSharded time) and CSSI is exact regardless of how
//     objects are clustered, the exact result set is BIT-IDENTICAL to
//     what an unsharded index returns — including tie breaks — on
//     either stripe count. An Approx request remains approximate and
//     has no bound to carry: every shard answers alone and the
//     per-shard answers are merged in the canonical (ascending
//     distance, ascending ID) order; its error profile depends on the
//     per-shard clustering, so sharded CSSIA results can differ from
//     unsharded CSSIA (both within the paper's error model).
//   - Writes ROUTE: Insert/Delete/Update touch exactly one shard and
//     publish one new snapshot of it (see shardCell for what that
//     costs). P writers on P distinct shards proceed concurrently.
//   - A read and a routed write never block each other: reads
//     are lock-free snapshot loads, and publication is a single atomic
//     pointer store per shard.
//
// Consistency: each read runs against one consistent snapshot PER
// SHARD, loaded independently when the read arrives. A write that was
// acknowledged before the read started is always visible; a write
// concurrent with the read is visible iff its shard's snapshot was
// loaded after publication. There is no cross-shard read transaction —
// the same semantics a distributed search cluster gives, in-process.
type ShardedIndex struct {
	shards []*shardCell
	dim    int

	// sink is the optional always-on trace collector (SetTraceSink),
	// swapped atomically so it can be (un)installed while serving.
	sink atomic.Pointer[obs.Sink]

	// resCache is the optional snapshot-keyed result cache
	// (EnableResultCache) and epoch its interned composite snapshot
	// token — the vector of per-shard snapshots a cached entry was
	// computed against (see epochToken).
	resCache atomic.Pointer[rescache.Cache]
	epoch    atomic.Pointer[shardEpoch]
}

// shardOf maps an object ID to its owning shard: a multiplicative
// (Fibonacci) hash scrambles the ID so that dense sequential ID ranges
// — the common case for ingestion — still spread uniformly, then the
// high 32 bits select the shard. Deterministic across processes, so a
// persisted sharded index reloads with identical routing.
func shardOf(id uint32, p int) int {
	if p == 1 {
		return 0
	}
	h := uint64(id) * 0x9E3779B97F4A7C15
	return int((h >> 32) % uint64(p))
}

// BuildSharded partitions ds by object ID across the given number of
// shards and builds one CSSI index per shard, in parallel. The distance
// normalizers (DsMax, DtMax) are computed ONCE over the full dataset
// and shared by every shard — this is what makes sharded exact search
// bit-identical to unsharded search; per-shard quantities (clustering,
// PCA model, projected normalizer) are derived from each shard's own
// objects — including zero Ks/Kt, which each shard derives from its own
// object count as a flat index over those objects would (and again at
// every rebuild). Coarser than the flat index's counts, they make a
// sharded read at P = 4 examine a quarter of the clusters full-corpus
// counts did, for less latency (DESIGN §3, §7c). Explicit Ks/Kt apply
// per shard verbatim. One anchor set, fitted over the full dataset,
// serves every shard, so a sharded read computes the query's anchor
// distances once. Writes and compactions keep a shard's set; Rebuild and
// RebuildInBackground refit each shard's own, and LoadSharded gives
// every shard its own; a read computes them again on each shard whose
// set is not shard 0's.
//
// Every shard must receive at least one object; with a uniform ID hash
// this fails only when ds is tiny relative to the shard count — use
// fewer shards or more data.
func BuildSharded(ds *Dataset, shards int, opts Options) (*ShardedIndex, error) {
	if shards < 1 {
		return nil, fmt.Errorf("cssi: shard count %d, want >= 1", shards)
	}
	if ds == nil || ds.Len() == 0 {
		return nil, fmt.Errorf("cssi: empty dataset")
	}
	if shards == 1 {
		idx, err := Build(ds, opts)
		if err != nil {
			return nil, err
		}
		return ShardedFrom(idx), nil
	}
	semKind := metric.EuclideanSemantic
	if opts.AngularSemantic {
		semKind = metric.AngularSemantic
	}
	// One Space over the FULL dataset: the conservative diameter
	// estimates every shard must agree on.
	space, err := metric.NewSpaceWithSemantic(ds, semKind)
	if err != nil {
		return nil, err
	}
	parts := make([]*Dataset, shards)
	for i := range parts {
		parts[i] = &Dataset{Dim: ds.Dim, Model: ds.Model}
	}
	for i := range ds.Objects {
		p := parts[shardOf(ds.Objects[i].ID, shards)]
		p.Objects = append(p.Objects, ds.Objects[i])
	}
	for i, p := range parts {
		if p.Len() == 0 {
			return nil, fmt.Errorf("cssi: shard %d of %d would be empty over %d objects; use fewer shards or more data",
				i, shards, ds.Len())
		}
	}
	s := &ShardedIndex{shards: make([]*shardCell, shards), dim: ds.Dim}
	shardCfg := opts.coreConfig()
	// One anchor set over the FULL dataset, shared read-only by every
	// shard: any anchor bounds any row, so the shards need not fit their
	// own (see core.FitAnchors).
	anchors := core.FitAnchors(ds, space, shardCfg)
	errs := make([]error, shards)
	var wg sync.WaitGroup
	for i := 0; i < shards; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Each shard gets its OWN copy of the space: core.Build sets
			// the projected-space normalizer (DtProjMax) on it, which is
			// legitimately per-shard, while the shared DsMax/DtMax values
			// are carried over unchanged.
			shardSpace := *space
			cfg := shardCfg
			cfg.Seed = opts.Seed + uint64(i) // distinct, deterministic per-shard seeds
			c, err := core.BuildWithAnchors(parts[i], &shardSpace, cfg, anchors)
			if err != nil {
				errs[i] = fmt.Errorf("cssi: building shard %d: %w", i, err)
				return
			}
			s.shards[i] = newShardCell(&Index{core: c, space: &shardSpace})
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return s, nil
}

// ShardedFrom wraps an existing single index as a one-shard
// ShardedIndex: the concurrent index over idx, and the adapter that
// lets the HTTP server and the persistence loader serve a legacy
// unsharded index unchanged. A trace sink installed on idx keeps
// recording — it becomes the wrapper's. The wrapped index must not be
// mutated directly afterwards; reading it remains safe, published
// snapshots are immutable.
func ShardedFrom(idx *Index) *ShardedIndex {
	s := &ShardedIndex{shards: []*shardCell{newShardCell(idx)}, dim: idx.Dim()}
	s.sink.Store(idx.sink)
	return s
}

// NumShards returns the number of shards P.
func (s *ShardedIndex) NumShards() int { return len(s.shards) }

// ShardFor returns the shard index that owns (or would own) the given
// object ID.
func (s *ShardedIndex) ShardFor(id uint32) int { return shardOf(id, len(s.shards)) }

// Insert adds a new object (paper §6.2) and publishes the result as a
// new snapshot of ONLY the owning shard; in-flight reads finish against
// the old one. Writes to different shards proceed concurrently.
func (s *ShardedIndex) Insert(o Object) error {
	return s.shards[s.ShardFor(o.ID)].apply(Op{Kind: OpInsert, Object: o})
}

// Delete removes the object with the given ID from its owning shard.
// Because an ID always hashes to the same shard, deleting an ID that
// was never inserted fails with the owning shard's unknown-ID error.
func (s *ShardedIndex) Delete(id uint32) error {
	return s.shards[s.ShardFor(id)].apply(Op{Kind: OpDelete, ID: id})
}

// Update replaces the stored object carrying o's ID on its owning
// shard (delete + insert, atomically visible there).
func (s *ShardedIndex) Update(o Object) error {
	return s.shards[s.ShardFor(o.ID)].apply(Op{Kind: OpUpdate, Object: o})
}

// opShard returns the shard an op routes to.
func (s *ShardedIndex) opShard(op Op) int {
	if op.Kind == OpDelete {
		return s.ShardFor(op.ID)
	}
	return s.ShardFor(op.Object.ID)
}

// ApplyBatch groups the ops by owning shard and applies each group as
// ONE write-and-publish cycle on its shard — readers never observe a
// partially applied group — with the groups running in parallel (the
// first on the caller's goroutine). Atomicity is PER SHARD, not global:
// a group that fails on any op leaves its shard untouched and its error
// reported, while other shards' groups still commit — the cross-shard
// trade every partitioned store makes. Within a shard, ops keep their
// relative order from the input slice. On one shard the batch is
// therefore all-or-nothing; callers needing that across the whole index
// build it with one shard.
func (s *ShardedIndex) ApplyBatch(ops []Op) error {
	if len(ops) == 0 {
		return nil
	}
	if len(s.shards) == 1 {
		return s.shards[0].apply(ops...)
	}
	// A batch confined to one shard — every single-op write — goes
	// straight to it, with no grouping and no goroutine.
	if si := s.opShard(ops[0]); !slices.ContainsFunc(ops[1:], func(op Op) bool { return s.opShard(op) != si }) {
		if err := s.shards[si].apply(ops...); err != nil {
			return fmt.Errorf("cssi: shard %d batch: %w", si, err)
		}
		return nil
	}
	groups := make([][]Op, len(s.shards))
	for _, op := range ops {
		si := s.opShard(op)
		groups[si] = append(groups[si], op)
	}
	errs := make([]error, len(s.shards))
	apply := func(i int) {
		if err := s.shards[i].apply(groups[i]...); err != nil {
			errs[i] = fmt.Errorf("cssi: shard %d batch: %w", i, err)
		}
	}
	// The first group runs on the caller's goroutine.
	own := -1
	var wg sync.WaitGroup
	for i := range s.shards {
		switch {
		case len(groups[i]) == 0:
		case own < 0:
			own = i
		default:
			wg.Add(1)
			go func() {
				defer wg.Done()
				apply(i)
			}()
		}
	}
	apply(own)
	wg.Wait()
	return errors.Join(errs...)
}

// Rebuild reconstructs every shard from scratch, in parallel, each
// shard publishing its fresh index the moment it finishes (staggered
// publication — readers never wait, and at no point is any shard
// unavailable). A shard with a background compaction or rebuild in
// flight rebuilds once that has published. Shards that fail report
// their error; the others still publish. A rebuild changes no exact
// search result, so a scatter that observes a mix of rebuilt and
// not-yet-rebuilt shards is harmless.
func (s *ShardedIndex) Rebuild() error {
	errs := make([]error, len(s.shards))
	var wg sync.WaitGroup
	for i := range s.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := s.shards[i].rebuild(); err != nil {
				errs[i] = fmt.Errorf("cssi: rebuilding shard %d: %w", i, err)
			}
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// RebuildInBackground starts a background rebuild on every shard and
// returns a channel that receives the combined outcome exactly once:
// nil when every shard rebuilt and published, or the joined errors.
// Readers AND writers stay available throughout on every shard, and
// each shard publishes independently as it completes. Shards that are
// already rebuilding (ErrRebuildInProgress) are reported in the
// combined outcome; the remaining shards still rebuild. Only if no
// shard could start is the error returned synchronously.
func (s *ShardedIndex) RebuildInBackground() (<-chan error, error) {
	chans := make([]<-chan error, 0, len(s.shards))
	startErrs := make([]error, 0)
	for i, sh := range s.shards {
		ch, err := sh.rebuildInBackground()
		if err != nil {
			startErrs = append(startErrs, fmt.Errorf("cssi: shard %d: %w", i, err))
			continue
		}
		chans = append(chans, ch)
	}
	if len(chans) == 0 {
		return nil, errors.Join(startErrs...)
	}
	done := make(chan error, 1)
	go func() {
		errs := append([]error(nil), startErrs...)
		for _, ch := range chans {
			if err := <-ch; err != nil {
				errs = append(errs, err)
			}
		}
		done <- errors.Join(errs...)
	}()
	return done, nil
}

// EnableKeywordFilter builds the inverted keyword index on every shard
// (each publishing a new snapshot), enabling SearchRequest.Keywords.
func (s *ShardedIndex) EnableKeywordFilter() {
	for _, sh := range s.shards {
		sh.enableKeywordFilter()
	}
}

// KeywordFilterEnabled reports whether every shard carries the keyword
// filter.
func (s *ShardedIndex) KeywordFilterEnabled() bool {
	for _, sh := range s.shards {
		if !sh.cur.Load().KeywordFilterEnabled() {
			return false
		}
	}
	return true
}

// Object looks up a live object on its owning shard, returning a copy
// whose Vec views the snapshot's vector storage and must not be written.
func (s *ShardedIndex) Object(id uint32) (Object, bool) {
	return s.shards[s.ShardFor(id)].cur.Load().core.Object(id)
}

// Len returns the total number of live objects across shards. The
// per-shard counts come from independently loaded snapshots (see the
// consistency note on ShardedIndex).
func (s *ShardedIndex) Len() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.cur.Load().Len()
	}
	return n
}

// Dim returns the embedding dimensionality shared by every shard.
func (s *ShardedIndex) Dim() int { return s.dim }

// NumClusters returns the total number of non-empty hybrid clusters
// across shards.
func (s *ShardedIndex) NumClusters() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.cur.Load().NumClusters()
	}
	return n
}

// UpdatesSinceBuild sums the per-shard Insert/Delete counts since each
// shard's last (re)build — the same rebuild heuristic as the unsharded
// API, aggregated.
func (s *ShardedIndex) UpdatesSinceBuild() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.cur.Load().UpdatesSinceBuild()
	}
	return n
}

// ShardStat describes one shard's currently published snapshot.
type ShardStat struct {
	// Shard is the shard index in [0, NumShards).
	Shard int
	// Objects is the shard's live object count.
	Objects int
	// Clusters is the shard's non-empty hybrid cluster count.
	Clusters int
	// UpdatesSinceBuild counts the shard's mutations since its last
	// (re)build.
	UpdatesSinceBuild int
	// SnapshotAge is how long ago the shard last published a snapshot.
	SnapshotAge time.Duration
	// Publications counts the shard's snapshot publications since the
	// sharded index was built (initial publication included).
	Publications int64
	// DeltaOps is the number of write ops buffered in the snapshot's
	// overlay (0 when flat).
	DeltaOps int
	// Compactions counts the shard's completed overlay compactions.
	Compactions int64
	// BaseAge is how long ago the shard's flat base was published —
	// unlike SnapshotAge it moves only on compactions and rebuilds.
	BaseAge time.Duration
	// Unanchored is the shard's Index.UnanchoredRows: the overlay's live
	// inserts, which the next compaction or rebuild anchors.
	Unanchored int
	// Heap is the snapshot's heap ledger, bytes per structure — what a
	// host is sized by.
	Heap HeapBytes
}

// ShardStats returns a per-shard snapshot summary — the backing data of
// the /metrics per-shard gauges and a quick balance check (Objects
// should be roughly uniform under hash routing).
func (s *ShardedIndex) ShardStats() []ShardStat {
	out := make([]ShardStat, len(s.shards))
	now := time.Now().UnixNano()
	for i, sh := range s.shards {
		snap := sh.cur.Load()
		out[i] = ShardStat{
			Shard:             i,
			Objects:           snap.Len(),
			Clusters:          snap.NumClusters(),
			UpdatesSinceBuild: snap.UpdatesSinceBuild(),
			SnapshotAge:       time.Duration(now - sh.publishedNS.Load()),
			Publications:      sh.publishes.Load(),
			DeltaOps:          snap.DeltaOps(),
			Compactions:       sh.compactions.Load(),
			BaseAge:           time.Duration(now - sh.baseNS.Load()),
			Unanchored:        snap.UnanchoredRows(),
			Heap:              snap.core.HeapBytes(),
		}
	}
	return out
}

// SetDeltaThreshold changes the overlay compaction threshold on every
// shard: positive bounds the overlay at that many write ops, 0 restores
// DefaultDeltaCompactThreshold, and a negative value fails with
// ErrInvalidDeltaThreshold. Takes effect on the next write; an existing
// overlay is left to the usual triggers (call Compact to fold it now).
func (s *ShardedIndex) SetDeltaThreshold(threshold int) error {
	if threshold < 0 {
		return ErrInvalidDeltaThreshold
	}
	for _, sh := range s.shards {
		sh.deltaThreshold.Store(resolveDeltaThreshold(threshold))
	}
	return nil
}

// SetCompactionObserver registers fn on every shard: it is called with
// each overlay compaction's duration right after its snapshot
// publishes, from whichever shard compacted (fn must be safe for
// concurrent calls; pass nil to unregister). Used by the server's
// /metrics latency histogram.
func (s *ShardedIndex) SetCompactionObserver(fn func(time.Duration)) {
	var hook *func(time.Duration)
	if fn != nil {
		hook = &fn
	}
	for _, sh := range s.shards {
		sh.compactObs.Store(hook)
	}
}

// Compact synchronously folds every shard's write overlay into a flat
// base (no-op on already-flat shards), after waiting for any background
// compaction or rebuild in flight on the shard. Most callers never need
// it — background compaction triggers automatically at the threshold —
// but it gives tests and maintenance endpoints a deterministic fold
// point: when it returns, no shard buffers an overlay op.
func (s *ShardedIndex) Compact() error {
	errs := make([]error, len(s.shards))
	for i, sh := range s.shards {
		if err := sh.compact(); err != nil {
			errs[i] = fmt.Errorf("cssi: compacting shard %d: %w", i, err)
		}
	}
	return errors.Join(errs...)
}

// CheckInvariants verifies every shard's structural invariants plus the
// sharding layer's own: each live object resides on the shard its ID
// hashes to, and all shards agree on the shared distance normalizers
// and dimensionality. Tests call it while writes and rebuilds are in
// flight; production code never needs it.
func (s *ShardedIndex) CheckInvariants() error {
	if err := s.checkAgreement(); err != nil {
		return err
	}
	for i, sh := range s.shards {
		snap := sh.cur.Load()
		if err := snap.CheckInvariants(); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		var misrouted error
		snap.core.ForEachLive(func(o *Object) {
			if misrouted == nil && shardOf(o.ID, len(s.shards)) != i {
				misrouted = fmt.Errorf("shard %d: object %d belongs on shard %d", i, o.ID, shardOf(o.ID, len(s.shards)))
			}
		})
		if misrouted != nil {
			return misrouted
		}
	}
	return nil
}

// checkAgreement verifies what makes a sharded exact search
// bit-identical to an unsharded one: every shard has the index's
// dimensionality and shard 0's distance normalizers. LoadSharded runs
// it on what the files held, before serving from them.
func (s *ShardedIndex) checkAgreement() error {
	if len(s.shards) == 0 {
		return fmt.Errorf("cssi: sharded index with no shards")
	}
	ref := s.shards[0].cur.Load().space
	for i, sh := range s.shards {
		snap := sh.cur.Load()
		if snap.Dim() != s.dim {
			return fmt.Errorf("shard %d: dim %d, sharded index expects %d", i, snap.Dim(), s.dim)
		}
		sp := snap.space
		if sp.DsMax != ref.DsMax || sp.DtMax != ref.DtMax || sp.SemanticKind != ref.SemanticKind {
			return fmt.Errorf("shard %d: normalizers (DsMax=%v, DtMax=%v, kind=%v) differ from shard 0 (%v, %v, %v)",
				i, sp.DsMax, sp.DtMax, sp.SemanticKind, ref.DsMax, ref.DtMax, ref.SemanticKind)
		}
	}
	return nil
}
