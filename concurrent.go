package cssi

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/rescache"
)

// ConcurrentIndex serves searches and maintenance from many goroutines
// with RCU-style snapshot publication instead of reader/writer locking:
//
//   - Readers are completely lock-free. Every read method atomically
//     loads the current snapshot (an immutable *Index) and runs against
//     it; there is no reader count, no shared mutable state, and no
//     cache line bouncing between reading cores. A snapshot is safe for
//     any number of concurrent searches because per-query scratch comes
//     from a sync.Pool.
//   - Writers serialize on a small mutex, apply their mutation to a
//     copy-on-write clone of the current snapshot (sharing the vector
//     arenas, centroid tables and untouched cluster arrays — see
//     internal/core's CloneForWrite), and publish the clone with one
//     atomic pointer store. Readers that loaded the old snapshot simply
//     finish against it; new reads see the new one.
//   - Rebuild reconstructs off to the side and publishes the result, so
//     even a full §6.2 rebuild never stalls a reader;
//     RebuildInBackground additionally keeps writers available during
//     reconstruction by logging their mutations and replaying them onto
//     the fresh index before it is published.
//
// The price is paid by writers, and with the delta overlay (the default)
// it is a fixed one: a mutation lands in a write overlay over the shared
// immutable base, the clone it is applied to shares the overlay's log,
// lookup tables and group lists — and the keyword filter's directory —
// until the write touches them, so publishing costs what the mutation
// touches, not what the index or the overlay holds. Only with the
// overlay disabled (DeltaDisabled) does every mutation copy the
// snapshot's mutable metadata (deleted bitmap, ID map, cluster
// directory — O(n)); ApplyBatch then coalesces many mutations into one
// clone-and-publish cycle. Reads, the hot path under serving load, pay
// nothing either way.
//
// A bare Index is already safe for concurrent searches only; use this
// wrapper when writers run alongside readers (the HTTP server in
// internal/server is built on it).
type ConcurrentIndex struct {
	cur atomic.Pointer[Index]

	// sink is the optional always-on trace collector (SetTraceSink),
	// swapped atomically so it can be (un)installed while serving.
	sink atomic.Pointer[obs.Sink]

	// resCache is the optional snapshot-keyed result cache
	// (EnableResultCache), swapped atomically so it can be
	// (un)installed while serving.
	resCache atomic.Pointer[rescache.Cache]

	// publishedNS is the wall-clock (UnixNano) instant of the last
	// snapshot publication — written together with every cur.Store and
	// read lock-free by SnapshotAge (the /metrics "snapshot age" gauge).
	publishedNS atomic.Int64

	// publishes counts snapshot publications over the wrapper's lifetime
	// (initial wrap included) — the /metrics
	// cssi_shard_snapshot_publications_total series.
	publishes atomic.Int64

	// baseNS is the wall-clock (UnixNano) instant the current FLAT base
	// was published — stamped whenever a snapshot with no buffered
	// overlay ops goes live (initial wrap, compaction, rebuild, or any
	// eager-mode write). Overlay-mode writes leave it alone, so BaseAge
	// measures how stale the immutable base under the delta is.
	baseNS atomic.Int64

	// deltaThreshold is the resolved overlay compaction threshold:
	// positive enables the delta write path and bounds the overlay size,
	// negative disables it (every write pays the eager clone). Resolved
	// from the index's build options at wrap time; adjustable via
	// SetDeltaThreshold.
	deltaThreshold atomic.Int64

	// compactions counts completed overlay compactions (background and
	// explicit) — the /metrics cssi_shard_compactions_total series.
	compactions atomic.Int64

	// compactObs, when set, is invoked with each compaction's duration
	// after its snapshot publishes (the /metrics latency histogram hook).
	compactObs atomic.Pointer[func(time.Duration)]

	// mu serializes writers: clone → mutate → publish, and the
	// rebuild-completion replay. Readers never touch it.
	mu sync.Mutex
	// rebuildActive marks an in-flight background reconstruction — a
	// RebuildInBackground OR a background overlay compaction, which
	// reuses the same protocol; while set, every published mutation is
	// appended to rebuildLog so it can be replayed onto the freshly built
	// index before publication. Both fields are guarded by mu.
	rebuildActive bool
	rebuildLog    []Op
}

// ErrRebuildInProgress is returned when a rebuild is requested while a
// background rebuild (or a background overlay compaction, which uses
// the same replay protocol) is still running.
var ErrRebuildInProgress = errors.New("cssi: rebuild already in progress")

// ErrInvalidDeltaThreshold is returned by the delta-threshold setters
// for values below DeltaDisabled (-1). Valid values are -1 (disabled),
// 0 (library default), and any positive op count.
var ErrInvalidDeltaThreshold = errors.New("cssi: delta compact threshold must be -1 (disabled), 0 (default), or positive")

// resolveDeltaThreshold maps an Options-style threshold (0 = default,
// negative = disabled) to the wrapper's internal resolved form.
func resolveDeltaThreshold(t int) int64 {
	switch {
	case t == 0:
		return DefaultDeltaCompactThreshold
	case t < 0:
		return -1
	default:
		return int64(t)
	}
}

// Concurrent wraps idx. The wrapped Index must not be mutated directly
// afterwards — all writes must go through the wrapper. (Read-only use
// of idx itself remains safe: published snapshots are immutable.)
func Concurrent(idx *Index) *ConcurrentIndex {
	c := &ConcurrentIndex{}
	c.deltaThreshold.Store(resolveDeltaThreshold(idx.core.Config().DeltaCompactThreshold))
	c.publish(idx)
	return c
}

// publish installs idx as the current snapshot and stamps the
// publication instant. Callers that mutate must hold c.mu; the initial
// Concurrent call has no readers yet. Publication also stamps the
// snapshot's sequence number (ResponseMeta.SnapshotID) and clears the
// result cache — the pointer comparison already guarantees no stale
// hit, the eager clear just releases the superseded snapshot promptly.
func (c *ConcurrentIndex) publish(idx *Index) {
	now := time.Now().UnixNano()
	idx.snapID = uint64(c.publishes.Load()) + 1
	c.cur.Store(idx)
	c.publishedNS.Store(now)
	if idx.DeltaOps() == 0 {
		c.baseNS.Store(now)
	}
	c.publishes.Add(1)
	if cache := c.resCache.Load(); cache != nil {
		cache.Invalidate()
	}
}

// Publications returns how many snapshots have been published since the
// wrapper was created, counting the initial wrap — so a freshly wrapped
// index reports 1 and every Insert/Delete/Update/ApplyBatch/Rebuild
// adds one. Lock-free.
func (c *ConcurrentIndex) Publications() int64 { return c.publishes.Load() }

// SnapshotAge returns how long ago the current snapshot was published —
// near zero under write traffic, growing on an idle or read-only index.
func (c *ConcurrentIndex) SnapshotAge() time.Duration {
	return time.Duration(time.Now().UnixNano() - c.publishedNS.Load())
}

// Snapshot returns the currently published index. The snapshot is
// immutable: it serves any number of concurrent read-only calls
// (Do, DoBatch, Object, RangeSearch, ...) at one
// consistent point in time, and it stays valid — and unchanged — for
// as long as the caller retains it, no matter how many writes or
// rebuilds are published after. Mutating methods must never be called
// on a snapshot; use the wrapper's Insert/Delete/Update/ApplyBatch.
func (c *ConcurrentIndex) Snapshot() *Index { return c.cur.Load() }

// Search is Index.Search against the current snapshot (lock-free).
func (c *ConcurrentIndex) Search(q *Object, k int, lambda float64) []Result {
	return mustResults(c.Do(SearchRequest{Query: q, K: k, Lambda: lambda}))
}

// SearchApprox is Index.SearchApprox against the current snapshot
// (lock-free).
func (c *ConcurrentIndex) SearchApprox(q *Object, k int, lambda float64) []Result {
	return mustResults(c.Do(SearchRequest{Query: q, K: k, Lambda: lambda, Approx: true}))
}

// RangeSearch is Index.RangeSearch against the current snapshot
// (lock-free).
func (c *ConcurrentIndex) RangeSearch(q *Object, r, lambda float64) []Result {
	return c.cur.Load().RangeSearch(q, r, lambda)
}

// SearchInBox is Index.SearchInBox against the current snapshot
// (lock-free).
func (c *ConcurrentIndex) SearchInBox(q *Object, loX, loY, hiX, hiY float64, k int) []Result {
	return c.cur.Load().SearchInBox(q, loX, loY, hiX, hiY, k)
}

// Len returns the live object count of the current snapshot.
func (c *ConcurrentIndex) Len() int { return c.cur.Load().Len() }

// Object looks up a live object in the current snapshot, returning a
// copy (the snapshot's storage is shared with future clones).
func (c *ConcurrentIndex) Object(id uint32) (Object, bool) {
	o, ok := c.cur.Load().Object(id)
	if !ok {
		return Object{}, false
	}
	return *o, true
}

// Unwrap returns the current snapshot; it is equivalent to Snapshot and
// retained for compatibility with the RWMutex-era API.
func (c *ConcurrentIndex) Unwrap() *Index { return c.cur.Load() }

// OpKind identifies one kind of maintenance mutation.
type OpKind int

const (
	// OpInsert inserts Op.Object.
	OpInsert OpKind = iota
	// OpDelete deletes the object with Op.ID.
	OpDelete
	// OpUpdate replaces the stored object carrying Op.Object's ID.
	OpUpdate
)

// Op is one maintenance mutation, usable with ApplyBatch to coalesce
// many writes into a single snapshot publication.
type Op struct {
	Kind   OpKind
	Object Object // OpInsert, OpUpdate
	ID     uint32 // OpDelete
}

// applyOp applies one mutation to an unpublished index.
func applyOp(idx *Index, op Op) error {
	switch op.Kind {
	case OpInsert:
		return idx.Insert(op.Object)
	case OpDelete:
		return idx.Delete(op.ID)
	case OpUpdate:
		return idx.Update(op.Object)
	default:
		return fmt.Errorf("cssi: unknown op kind %d", op.Kind)
	}
}

// apply clones the current snapshot, applies the ops in order, and
// publishes the clone — all under the writer mutex. All-or-nothing: if
// any op fails, nothing is published and the error is returned.
//
// With the delta overlay enabled (the default), the clone costs the
// same however many ops the overlay buffers: writes land in an overlay
// chained over the shared immutable base, and once the overlay reaches
// the compaction threshold a background fold publishes a fresh flat
// base. A clone dropped by a failing batch may already have appended to
// the log the overlay lineage shares; the next write's clone then finds
// the slot taken and moves to a private log (core's lost-claim copy).
func (c *ConcurrentIndex) apply(ops ...Op) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	threshold := c.deltaThreshold.Load()
	next := c.writeClone(c.cur.Load())
	for _, op := range ops {
		if err := applyOp(next, op); err != nil {
			return err
		}
	}
	c.publish(next)
	if c.rebuildActive {
		c.rebuildLog = append(c.rebuildLog, ops...)
	} else if n := int64(next.DeltaOps()); n > 0 && (threshold <= 0 || n >= threshold) {
		// Threshold crossed — or the overlay was disabled mid-stream and
		// the residual delta must drain.
		c.startCompactionLocked(next)
	}
	return nil
}

// writeClone produces the snapshot clone a mutation will be applied to.
// Delta-carrying snapshots ALWAYS clone through the overlay, even when
// the threshold is disabled: an eager CloneForWrite would silently drop
// the buffered delta ops, and — equally load-bearing — this keeps every
// writer off the shared base structures while a background fold (which
// implies cur.DeltaOps() > 0 for its whole flight) replays into them.
func (c *ConcurrentIndex) writeClone(cur *Index) *Index {
	if c.deltaThreshold.Load() > 0 || cur.DeltaOps() > 0 {
		return cur.cloneWithDelta()
	}
	return cur.cloneForWrite()
}

// startCompactionLocked kicks off a background fold of snap's overlay
// into a fresh flat base, reusing the RebuildInBackground protocol:
// rebuildActive is set so writes that land during the fold accumulate
// in rebuildLog and are replayed onto the (still private) compacted
// index before it publishes. Caller must hold c.mu.
func (c *ConcurrentIndex) startCompactionLocked(snap *Index) {
	c.rebuildActive = true
	c.rebuildLog = nil
	go func() {
		start := time.Now()
		compacted, err := snap.compact()

		c.mu.Lock()
		defer c.mu.Unlock()
		log := c.rebuildLog
		c.rebuildActive, c.rebuildLog = false, nil
		for i := 0; err == nil && i < len(log); i++ {
			if replayErr := applyOp(compacted, log[i]); replayErr != nil {
				err = fmt.Errorf("cssi: compaction replay op %d: %w", i, replayErr)
			}
		}
		if err != nil {
			// The current snapshot already holds every acknowledged
			// write (base+delta answers are exact); dropping the fold
			// loses nothing, and the next threshold crossing retries.
			return
		}
		if !compacted.KeywordFilterEnabled() && c.cur.Load().KeywordFilterEnabled() {
			compacted.EnableKeywordFilter()
		}
		c.publish(compacted)
		c.compactions.Add(1)
		if f := c.compactObs.Load(); f != nil {
			(*f)(time.Since(start))
		}
	}()
}

// Compact synchronously folds the current snapshot's write overlay into
// a flat base and publishes it, holding the writer mutex for the whole
// fold. A no-op when the snapshot is already flat. Most callers never
// need it — background compaction triggers automatically at the
// threshold — but it gives tests and maintenance endpoints a
// deterministic fold point.
func (c *ConcurrentIndex) Compact() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.rebuildActive {
		// An in-flight background fold or rebuild will publish a flat
		// base anyway; folding the same lineage twice concurrently would
		// race on the shared arenas.
		return nil
	}
	cur := c.cur.Load()
	if cur.DeltaOps() == 0 {
		return nil
	}
	start := time.Now()
	compacted, err := cur.compact()
	if err != nil {
		return err
	}
	c.publish(compacted)
	c.compactions.Add(1)
	if f := c.compactObs.Load(); f != nil {
		(*f)(time.Since(start))
	}
	return nil
}

// SetDeltaThreshold changes the overlay compaction threshold: positive
// bounds the overlay at that many write ops, 0 restores
// DefaultDeltaCompactThreshold, and DeltaDisabled (-1) switches writes
// back to eager clones. Takes effect on the next write; an existing
// overlay is left to the usual triggers (call Compact to fold it now).
func (c *ConcurrentIndex) SetDeltaThreshold(threshold int) error {
	if threshold < DeltaDisabled {
		return ErrInvalidDeltaThreshold
	}
	c.deltaThreshold.Store(resolveDeltaThreshold(threshold))
	return nil
}

// SetCompactionObserver registers fn to be called with each overlay
// compaction's duration right after its snapshot publishes (pass nil to
// unregister). Used by the server's /metrics latency histogram.
func (c *ConcurrentIndex) SetCompactionObserver(fn func(time.Duration)) {
	if fn == nil {
		c.compactObs.Store(nil)
		return
	}
	c.compactObs.Store(&fn)
}

// DeltaOps reports the write ops buffered in the current snapshot's
// overlay (lock-free; 0 when flat or disabled).
func (c *ConcurrentIndex) DeltaOps() int { return c.cur.Load().DeltaOps() }

// Compactions returns how many overlay compactions (background and
// explicit) have published since the wrapper was created. Lock-free.
func (c *ConcurrentIndex) Compactions() int64 { return c.compactions.Load() }

// BaseAge returns how long ago the current flat base was published —
// unlike SnapshotAge (near zero under overlay-mode write traffic, since
// every write publishes), it moves only on compactions, rebuilds, and
// eager-mode writes, measuring the staleness of the immutable base
// under the delta.
func (c *ConcurrentIndex) BaseAge() time.Duration {
	return time.Duration(time.Now().UnixNano() - c.baseNS.Load())
}

// Insert adds a new object (paper §6.2) and publishes the result as a
// new snapshot. In-flight reads finish against the old snapshot.
func (c *ConcurrentIndex) Insert(o Object) error {
	return c.apply(Op{Kind: OpInsert, Object: o})
}

// Delete removes the object with the given ID and publishes the result
// as a new snapshot.
func (c *ConcurrentIndex) Delete(id uint32) error {
	return c.apply(Op{Kind: OpDelete, ID: id})
}

// Update replaces the stored object carrying o's ID and publishes the
// result as a new snapshot (delete + insert, atomically visible).
func (c *ConcurrentIndex) Update(o Object) error {
	return c.apply(Op{Kind: OpUpdate, Object: o})
}

// ApplyBatch applies many mutations in order and publishes them as ONE
// new snapshot, amortizing the copy-on-write cost across the batch and
// guaranteeing readers never observe a partially applied batch. It is
// all-or-nothing: on the first failing op the whole batch is discarded,
// no snapshot is published, and the error is returned.
func (c *ConcurrentIndex) ApplyBatch(ops []Op) error {
	if len(ops) == 0 {
		return nil
	}
	return c.apply(ops...)
}

// EnableKeywordFilter publishes a snapshot with the inverted keyword
// index built (see Index.EnableKeywordFilter), after which
// SearchWithKeywords works on every later snapshot: writes keep the
// filter in sync, and rebuilds reconstruct it. A no-op when the filter
// is already enabled.
func (c *ConcurrentIndex) EnableKeywordFilter() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cur.Load().KeywordFilterEnabled() {
		return
	}
	next := c.writeClone(c.cur.Load())
	next.EnableKeywordFilter()
	c.publish(next)
}

// KeywordFilterEnabled reports whether the current snapshot carries the
// keyword filter.
func (c *ConcurrentIndex) KeywordFilterEnabled() bool {
	return c.cur.Load().KeywordFilterEnabled()
}

// RouterTrained reports whether the current snapshot carries a trained
// cluster router (see Index.RouterTrained). Rebuilds retrain the router;
// incremental writes keep the build-time model.
func (c *ConcurrentIndex) RouterTrained() bool {
	return c.cur.Load().RouterTrained()
}

// SearchWithKeywords is Index.SearchWithKeywords against the current
// snapshot (lock-free).
func (c *ConcurrentIndex) SearchWithKeywords(q *Object, k int, lambda float64, keywords ...string) ([]Result, bool) {
	return keywordSearch(c.Do, q, k, lambda, keywords)
}

// Rebuild reconstructs the index from scratch over the live objects
// (§6.2) and publishes the result. Unlike the RWMutex-era Rebuild, it
// never stalls readers: they keep searching the old snapshot for the
// whole reconstruction. Writers, however, wait on the writer mutex; use
// RebuildInBackground to keep them available too. Returns
// ErrRebuildInProgress while a background rebuild is active.
func (c *ConcurrentIndex) Rebuild() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.rebuildActive {
		return ErrRebuildInProgress
	}
	fresh, err := c.cur.Load().rebuildFresh()
	if err != nil {
		return err
	}
	c.publish(fresh)
	return nil
}

// RebuildInBackground reconstructs the index off to the side while both
// readers AND writers stay available, then publishes the replacement.
// Mutations that land while the rebuild is running are recorded and
// deterministically replayed, in order, onto the fresh index before it
// is published, so no acknowledged write is lost. The returned channel
// receives the rebuild's outcome exactly once: nil after successful
// publication, or the build/replay error (in which case the current
// snapshot — which already contains every acknowledged write — stays
// published). At most one background rebuild may be in flight;
// concurrent requests fail with ErrRebuildInProgress.
func (c *ConcurrentIndex) RebuildInBackground() (<-chan error, error) {
	c.mu.Lock()
	if c.rebuildActive {
		c.mu.Unlock()
		return nil, ErrRebuildInProgress
	}
	c.rebuildActive = true
	c.rebuildLog = nil
	base := c.cur.Load()
	c.mu.Unlock()

	done := make(chan error, 1)
	go func() {
		// Reconstruction runs without any lock: readers serve from the
		// current snapshot, writers clone-and-publish as usual (their
		// ops accumulate in rebuildLog).
		fresh, err := base.rebuildFresh()

		c.mu.Lock()
		defer c.mu.Unlock()
		log := c.rebuildLog
		c.rebuildActive, c.rebuildLog = false, nil
		for i := 0; err == nil && i < len(log); i++ {
			// fresh is still private to this goroutine, so the replay
			// mutates it directly — no COW cycle per op. Replaying the
			// exact sequence of acknowledged ops onto the rebuild base
			// (the live set those ops originally applied to) cannot
			// conflict; a failure here aborts publication.
			if replayErr := applyOp(fresh, log[i]); replayErr != nil {
				err = fmt.Errorf("cssi: rebuild replay op %d: %w", i, replayErr)
			}
		}
		if err == nil {
			// A keyword filter enabled mid-rebuild exists on the current
			// snapshot but not on fresh (which was rebuilt from the
			// pre-enable base); build it before publishing so the
			// capability never silently disappears.
			if !fresh.KeywordFilterEnabled() && c.cur.Load().KeywordFilterEnabled() {
				fresh.EnableKeywordFilter()
			}
			c.publish(fresh)
		}
		done <- err
	}()
	return done, nil
}
