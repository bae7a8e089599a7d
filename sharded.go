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

// Index answers semantic spatio-textual k-NN queries: one logical
// CSSI index partitioned across P independent shards, each a shardCell
// owning a disjoint subset of the objects (assignment by a hash of the
// object ID, so an ID's shard never changes) and publishing immutable
// snapshots of it. Build makes the one-shard index and BuildSharded one
// of any P; both serve the same requests under the same writer
// protocol, trace sink and result cache, and P = 1 has nothing to
// route or merge. An Index is safe for any mix of concurrent reads and
// writes. What P > 1 buys is writer concurrency and bounded background
// work: writes to different shards do not serialize against each other
// at all, and a compaction or rebuild folds or reconstructs one shard's
// objects, not the corpus.
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
//     what a one-shard index returns — including tie breaks — on
//     either stripe count. An Approx request remains approximate and
//     has no bound to carry: every shard answers alone and the
//     per-shard answers are merged in the canonical (ascending
//     distance, ascending ID) order; its error profile depends on the
//     per-shard clustering, so sharded CSSIA results can differ from
//     one-shard CSSIA (both within the paper's error model).
//   - Writes ROUTE: Insert/Delete/Update touch exactly one shard and
//     publish one new snapshot of it (see shardCell for what that
//     costs). P writers on P distinct shards proceed concurrently. No
//     write folds on its caller's goroutine: the write that fills a
//     shard's overlay starts that shard's background fold.
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
type Index struct {
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

// ShardedIndex is Index, kept for bench/ (ROADMAP item 1 deletes it).
//
// Deprecated: use Index.
type ShardedIndex = Index

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

// Build constructs a CSSI/CSSIA index over the dataset (paper Alg. 1):
// the one-shard index, BuildSharded(ds, 1, opts).
func Build(ds *Dataset, opts Options) (*Index, error) { return BuildSharded(ds, 1, opts) }

// BuildSharded partitions ds by object ID across the given number of
// shards and builds one CSSI index per shard, in parallel. The distance
// normalizers (DsMax, DtMax) are computed ONCE over the full dataset
// and shared by every shard — this is what makes sharded exact search
// bit-identical to one-shard search; per-shard quantities (clustering,
// PCA model, projected normalizer) are derived from each shard's own
// objects — including zero Ks/Kt, which each shard derives from its own
// object count as a one-shard index over those objects would (and again
// at every rebuild). Coarser than the one-shard index's counts, they
// make a sharded read at P = 4 examine a quarter of the clusters
// full-corpus counts did, for less latency (DESIGN §3, §7c). Explicit
// Ks/Kt apply per shard verbatim. One anchor set, fitted over the full
// dataset, serves every shard, so a sharded read computes the query's
// anchor distances once. Writes and compactions keep a shard's set;
// Rebuild and RebuildInBackground refit each shard's own, and
// LoadSharded gives every shard its own; a read computes them again on
// each shard whose set is not shard 0's.
//
// Every shard must receive at least one object; with a uniform ID hash
// this fails only when ds is tiny relative to the shard count — use
// fewer shards or more data.
func BuildSharded(ds *Dataset, shards int, opts Options) (*Index, error) {
	if shards < 1 {
		return nil, fmt.Errorf("cssi: shard count %d, want >= 1", shards)
	}
	if ds == nil || ds.Len() == 0 {
		return nil, fmt.Errorf("cssi: empty dataset")
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
	if shards == 1 {
		c, err := core.Build(ds, space, opts.coreConfig())
		if err != nil {
			return nil, err
		}
		return newIndex([]*snapshot{{core: c, space: space}}), nil
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
	snaps := make([]*snapshot, shards)
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
			snaps[i] = &snapshot{core: c, space: &shardSpace}
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return newIndex(snaps), nil
}

// newIndex publishes snaps, in shard order, as the first snapshots of
// a new index's cells.
func newIndex(snaps []*snapshot) *Index {
	x := &Index{shards: make([]*shardCell, len(snaps)), dim: snaps[0].core.Dim()}
	for i, snap := range snaps {
		x.shards[i] = newShardCell(snap)
	}
	return x
}

// ShardedFrom returns a new Index whose cells start from x's current
// snapshots and which adopts x's trace sink; its result cache, epoch
// and delta thresholds are its own. Kept for bench/ (ROADMAP item 1
// deletes it). x must not be written afterwards; reading it remains
// safe.
func ShardedFrom(x *Index) *Index {
	snaps := make([]*snapshot, len(x.shards))
	for i, sh := range x.shards {
		snap := *sh.cur.Load()
		snaps[i] = &snap
	}
	nx := newIndex(snaps)
	nx.sink.Store(x.sink.Load())
	return nx
}

// NumShards returns the number of shards P.
func (s *Index) NumShards() int { return len(s.shards) }

// ShardFor returns the shard index that owns (or would own) the given
// object ID.
func (s *Index) ShardFor(id uint32) int { return shardOf(id, len(s.shards)) }

// Insert adds a new object (paper §6.2) and publishes the result as a
// new snapshot of ONLY the owning shard; in-flight reads finish against
// the old one. Writes to different shards proceed concurrently.
func (s *Index) Insert(o Object) error {
	return s.shards[s.ShardFor(o.ID)].apply(Op{Kind: OpInsert, Object: o})
}

// Delete removes the object with the given ID from its owning shard.
// Because an ID always hashes to the same shard, deleting an ID that
// was never inserted fails with the owning shard's unknown-ID error.
func (s *Index) Delete(id uint32) error {
	return s.shards[s.ShardFor(id)].apply(Op{Kind: OpDelete, ID: id})
}

// Update replaces the stored object carrying o's ID on its owning
// shard (delete + insert, atomically visible there).
func (s *Index) Update(o Object) error {
	return s.shards[s.ShardFor(o.ID)].apply(Op{Kind: OpUpdate, Object: o})
}

// opShard returns the shard an op routes to.
func (s *Index) opShard(op Op) int {
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
func (s *Index) ApplyBatch(ops []Op) error {
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

// Rebuild reconstructs every shard from scratch over its live objects —
// the remedy the paper prescribes after heavy distribution drift
// (§6.2) — in parallel, each shard publishing its fresh snapshot the
// moment it finishes (staggered
// publication — readers never wait, and at no point is any shard
// unavailable). A shard with a background compaction or rebuild in
// flight rebuilds once that has published. Shards that fail report
// their error; the others still publish. A rebuild changes no exact
// search result, so a scatter that observes a mix of rebuilt and
// not-yet-rebuilt shards is harmless.
func (s *Index) Rebuild() error {
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
func (s *Index) RebuildInBackground() (<-chan error, error) {
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

// EnableKeywordFilter builds the inverted keyword index over the stored
// objects' texts on every shard (each publishing a new snapshot),
// enabling SearchRequest.Keywords. Insert/Delete/Update keep it in sync
// from then on, and rebuilds reconstruct it. Objects with empty text
// simply never match keyword queries.
func (s *Index) EnableKeywordFilter() {
	for _, sh := range s.shards {
		sh.enableKeywordFilter()
	}
}

// KeywordFilterEnabled reports whether every shard carries the keyword
// filter.
func (s *Index) KeywordFilterEnabled() bool {
	for _, sh := range s.shards {
		if sh.cur.Load().kw == nil {
			return false
		}
	}
	return true
}

// KeywordDocFrequency reports how many live objects contain the keyword
// (0 when the filter is disabled or the keyword normalizes away).
func (s *Index) KeywordDocFrequency(kw string) int {
	n := 0
	for _, sh := range s.shards {
		if f := sh.cur.Load().kw; f != nil {
			n += f.DocFrequency(kw)
		}
	}
	return n
}

// Object looks up a live object on its owning shard, returning a copy
// whose Vec views the snapshot's vector storage and must not be written.
func (s *Index) Object(id uint32) (Object, bool) {
	return s.shards[s.ShardFor(id)].cur.Load().core.Object(id)
}

// sum adds f over every shard's current snapshot. The per-shard values
// come from independently loaded snapshots (see the consistency note on
// Index).
func (s *Index) sum(f func(*core.Index) int) int {
	n := 0
	for _, sh := range s.shards {
		n += f(sh.cur.Load().core)
	}
	return n
}

// Len returns the total number of live objects across shards.
func (s *Index) Len() int { return s.sum((*core.Index).Len) }

// Dim returns the embedding dimensionality the index was built with —
// every query vector and inserted object must carry exactly this length.
func (s *Index) Dim() int { return s.dim }

// NumClusters returns the total number of non-empty hybrid clusters
// across shards.
func (s *Index) NumClusters() int { return s.sum((*core.Index).NumClusters) }

// UpdatesSinceBuild sums the per-shard Insert/Delete counts since each
// shard's last (re)build, a rebuild heuristic for callers.
func (s *Index) UpdatesSinceBuild() int {
	return s.sum(func(c *core.Index) int { return c.UpdatesSinceBuild })
}

// DriftRatio reports the fraction of post-build inserts that landed
// outside the build-time cluster balls — near zero while the incoming
// data follows the built distribution, rising when it drifts. Sustained
// high values are the §6.2 signal to Rebuild. It is pooled over the
// shards: their drifted inserts over their inserts, each counted since
// its shard's last (re)build.
func (s *Index) DriftRatio() float64 {
	var drifts, inserts int
	for _, sh := range s.shards {
		d, n := sh.cur.Load().core.DriftCounts()
		drifts, inserts = drifts+d, inserts+n
	}
	if inserts == 0 {
		return 0
	}
	return float64(drifts) / float64(inserts)
}

// UnanchoredRows counts the live objects inserted since their shard's
// last Build, Load, compaction or Rebuild — the write overlays' live
// inserts: they scan without the anchor bound until the next
// compaction or rebuild anchors them. Beside DriftRatio it is the
// second rebuild signal — drift says the clusters stopped fitting, this
// says how many rows lost their cheapest filter. Always 0 under
// AngularSemantic, where no row has an anchor.
func (s *Index) UnanchoredRows() int { return s.sum((*core.Index).UnanchoredRows) }

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
	// Unanchored is the shard's share of Index.UnanchoredRows: the
	// overlay's live inserts, which the next compaction or rebuild
	// anchors.
	Unanchored int
	// Heap is the snapshot's heap ledger, bytes per structure — what a
	// host is sized by.
	Heap HeapBytes
}

// ShardStats returns a per-shard snapshot summary — the backing data of
// the /metrics per-shard gauges and a quick balance check (Objects
// should be roughly uniform under hash routing).
func (s *Index) ShardStats() []ShardStat {
	out := make([]ShardStat, len(s.shards))
	now := time.Now().UnixNano()
	for i, sh := range s.shards {
		snap := sh.cur.Load().core
		out[i] = ShardStat{
			Shard:             i,
			Objects:           snap.Len(),
			Clusters:          snap.NumClusters(),
			UpdatesSinceBuild: snap.UpdatesSinceBuild,
			SnapshotAge:       time.Duration(now - sh.publishedNS.Load()),
			Publications:      sh.publishes.Load(),
			DeltaOps:          snap.DeltaOps(),
			Compactions:       sh.compactions.Load(),
			BaseAge:           time.Duration(now - sh.baseNS.Load()),
			Unanchored:        snap.UnanchoredRows(),
			Heap:              snap.HeapBytes(),
		}
	}
	return out
}

// SetDeltaThreshold changes the overlay compaction threshold on every
// shard: positive bounds the overlay at that many write ops, 0 restores
// DefaultDeltaCompactThreshold, and a negative value fails with
// ErrInvalidDeltaThreshold. Takes effect on the next write; an existing
// overlay is left to the usual triggers (call Compact to fold it now).
func (s *Index) SetDeltaThreshold(threshold int) error {
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
func (s *Index) SetCompactionObserver(fn func(time.Duration)) {
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
func (s *Index) Compact() error {
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
func (s *Index) CheckInvariants() error {
	if err := s.checkAgreement(); err != nil {
		return err
	}
	for i, sh := range s.shards {
		snap := sh.cur.Load().core
		if err := snap.CheckInvariants(); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		var misrouted error
		snap.ForEachLive(func(o *Object) {
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
func (s *Index) checkAgreement() error {
	if len(s.shards) == 0 {
		return fmt.Errorf("cssi: sharded index with no shards")
	}
	ref := s.shards[0].cur.Load().space
	for i, sh := range s.shards {
		snap := sh.cur.Load()
		if d := snap.core.Dim(); d != s.dim {
			return fmt.Errorf("shard %d: dim %d, sharded index expects %d", i, d, s.dim)
		}
		sp := snap.space
		if sp.DsMax != ref.DsMax || sp.DtMax != ref.DtMax || sp.SemanticKind != ref.SemanticKind {
			return fmt.Errorf("shard %d: normalizers (DsMax=%v, DtMax=%v, kind=%v) differ from shard 0 (%v, %v, %v)",
				i, sp.DsMax, sp.DtMax, sp.SemanticKind, ref.DsMax, ref.DtMax, ref.SemanticKind)
		}
	}
	return nil
}
