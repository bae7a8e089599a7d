package cssi

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// ConcurrentIndex is the one-shard ShardedIndex.
//
// Deprecated: use ShardedIndex.
type ConcurrentIndex = ShardedIndex

// Concurrent is ShardedFrom.
//
// Deprecated: use ShardedFrom.
func Concurrent(idx *Index) *ConcurrentIndex { return ShardedFrom(idx) }

// shardCell is the synchronisation of one shard of a ShardedIndex:
// RCU-style snapshot publication instead of reader/writer locking. It
// holds the writer protocol only — requests, the trace sink and the
// result cache live once, on the ShardedIndex above it.
//
//   - Readers are completely lock-free: they atomically load the current
//     snapshot (an immutable *Index) and run against it; there is no
//     reader count, no shared mutable state, and no cache line bouncing
//     between reading cores. A snapshot is safe for any number of
//     concurrent searches because per-query scratch comes from a
//     sync.Pool, and it stays valid — and unchanged — for as long as a
//     reader retains it.
//   - Writers serialize on a small mutex, apply their mutation to a
//     copy-on-write clone of the current snapshot (sharing the vector
//     arenas, centroid tables and untouched cluster arrays — see
//     internal/core's CloneForWrite), and publish the clone with one
//     atomic pointer store. Readers that loaded the old snapshot simply
//     finish against it; new reads see the new one.
//   - A rebuild reconstructs off to the side and publishes the result,
//     so even a full §6.2 rebuild never stalls a reader; the background
//     one additionally keeps writers available during reconstruction by
//     logging their mutations and replaying them onto the fresh index
//     before it is published (see buildAsideLocked).
//
// The price is paid by writers, and with the delta overlay (the default)
// it is a fixed one: a mutation lands in a write overlay over the shared
// immutable base, the clone it is applied to shares the overlay's log,
// lookup tables and group lists — and the keyword filter's directory —
// until the write touches them, so publishing costs what the mutation
// touches, not what the shard or the overlay holds. Only with the
// overlay disabled (DeltaDisabled) does every mutation copy the
// snapshot's mutable metadata (deleted bitmap, ID map, cluster
// directory — O(shard)); a batch then coalesces many mutations into one
// clone-and-publish cycle. Reads pay nothing either way.
type shardCell struct {
	cur atomic.Pointer[Index]

	// publishedNS is the wall-clock (UnixNano) instant of the last
	// snapshot publication — written together with every cur.Store (the
	// /metrics "snapshot age" gauge).
	publishedNS atomic.Int64

	// publishes counts snapshot publications over the cell's lifetime
	// (initial wrap included) — the /metrics
	// cssi_shard_snapshot_publications_total series.
	publishes atomic.Int64

	// baseNS is the wall-clock (UnixNano) instant the current FLAT base
	// was published — stamped whenever a snapshot with no buffered
	// overlay ops goes live (initial wrap, compaction, rebuild, or any
	// eager-mode write). Overlay-mode writes leave it alone, so it
	// measures how stale the immutable base under the delta is.
	baseNS atomic.Int64

	// deltaThreshold is the resolved overlay compaction threshold:
	// positive enables the delta write path and bounds the overlay size,
	// negative disables it (every write pays the eager clone). Resolved
	// from the index's build options at wrap time; adjustable via
	// ShardedIndex.SetDeltaThreshold.
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
	// rebuild or an overlay compaction, one protocol (buildAsideLocked);
	// while set, every published mutation is appended to rebuildLog so
	// it can be replayed onto the freshly built index before
	// publication. Both fields are guarded by mu.
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
// negative = disabled) to the cell's internal resolved form.
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

// newShardCell publishes idx as the cell's first snapshot. idx must not
// be mutated directly afterwards — all writes go through the cell.
func newShardCell(idx *Index) *shardCell {
	c := &shardCell{}
	c.deltaThreshold.Store(resolveDeltaThreshold(idx.core.Config().DeltaCompactThreshold))
	c.publish(idx)
	return c
}

// publish installs idx as the current snapshot, stamping the
// publication instant and the snapshot's sequence number
// (ResponseMeta.SnapshotID). Callers that mutate must hold c.mu; the
// initial newShardCell call has no readers yet.
func (c *shardCell) publish(idx *Index) {
	now := time.Now().UnixNano()
	idx.snapID = uint64(c.publishes.Load()) + 1
	c.cur.Store(idx)
	c.publishedNS.Store(now)
	if idx.DeltaOps() == 0 {
		c.baseNS.Store(now)
	}
	c.publishes.Add(1)
}

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
// publishes the clone as ONE new snapshot — all under the writer mutex,
// so readers never observe a partially applied batch. All-or-nothing:
// if any op fails, nothing is published and the error is returned.
//
// With the delta overlay enabled (the default), the clone costs the
// same however many ops the overlay buffers: writes land in an overlay
// chained over the shared immutable base, and once the overlay reaches
// the compaction threshold a background fold publishes a fresh flat
// base. A clone dropped by a failing batch may already have appended to
// the log the overlay lineage shares; the next write's clone then finds
// the slot taken and moves to a private log (core's lost-claim copy).
func (c *shardCell) apply(ops ...Op) error {
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
		// the residual delta must drain. A fold that fails loses nothing:
		// the current snapshot already holds every acknowledged write
		// (base+delta answers are exact), and the next crossing retries.
		start := time.Now()
		c.buildAsideLocked("compaction", next.compact, func(err error) {
			if err == nil {
				c.countCompaction(start)
			}
		})
	}
	return nil
}

// writeClone produces the snapshot clone a mutation will be applied to.
// Delta-carrying snapshots ALWAYS clone through the overlay, even when
// the threshold is disabled: an eager CloneForWrite would silently drop
// the buffered delta ops, and — equally load-bearing — this keeps every
// writer off the shared base structures while a background fold (which
// implies cur.DeltaOps() > 0 for its whole flight) replays into them.
func (c *shardCell) writeClone(cur *Index) *Index {
	if c.deltaThreshold.Load() > 0 || cur.DeltaOps() > 0 {
		return cur.cloneWithDelta()
	}
	return cur.cloneForWrite()
}

// buildAsideLocked replaces the snapshot with what build returns while
// both readers AND writers stay available — the one protocol behind the
// background rebuild and the background overlay compaction. build runs
// on its own goroutine with no lock held: readers serve from the
// current snapshot, writers clone-and-publish as usual, and because
// rebuildActive is set their ops accumulate in rebuildLog. Once build
// returns, the log is replayed, in order, onto the result — still
// private to the goroutine, so the replay mutates it directly, no COW
// cycle per op; replaying the exact sequence of acknowledged ops onto
// the live set they originally applied to cannot conflict, and a
// failure aborts publication — and the result is published. done
// receives the outcome, under c.mu, exactly once; on an error the
// current snapshot, which already contains every acknowledged write,
// stays published. Caller must hold c.mu.
func (c *shardCell) buildAsideLocked(what string, build func() (*Index, error), done func(error)) {
	c.rebuildActive, c.rebuildLog = true, nil
	go func() {
		fresh, err := build()

		c.mu.Lock()
		defer c.mu.Unlock()
		log := c.rebuildLog
		c.rebuildActive, c.rebuildLog = false, nil
		for i := 0; err == nil && i < len(log); i++ {
			if replayErr := applyOp(fresh, log[i]); replayErr != nil {
				err = fmt.Errorf("cssi: %s replay op %d: %w", what, i, replayErr)
			}
		}
		if err == nil {
			// A keyword filter enabled mid-build exists on the current
			// snapshot but not on fresh (which was built from the
			// pre-enable base); build it before publishing so the
			// capability never silently disappears.
			if !fresh.KeywordFilterEnabled() && c.cur.Load().KeywordFilterEnabled() {
				fresh.EnableKeywordFilter()
			}
			c.publish(fresh)
		}
		done(err)
	}()
}

// countCompaction records one published overlay compaction that began
// at start.
func (c *shardCell) countCompaction(start time.Time) {
	c.compactions.Add(1)
	if f := c.compactObs.Load(); f != nil {
		(*f)(time.Since(start))
	}
}

// compact synchronously folds the current snapshot's write overlay into
// a flat base and publishes it, holding the writer mutex for the whole
// fold. A no-op when the snapshot is already flat.
func (c *shardCell) compact() error {
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
	c.countCompaction(start)
	return nil
}

// enableKeywordFilter publishes a snapshot with the inverted keyword
// index built (see Index.EnableKeywordFilter): writes keep the filter in
// sync on every later snapshot, and rebuilds reconstruct it. A no-op
// when the filter is already enabled.
func (c *shardCell) enableKeywordFilter() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cur.Load().KeywordFilterEnabled() {
		return
	}
	next := c.writeClone(c.cur.Load())
	next.EnableKeywordFilter()
	c.publish(next)
}

// rebuild reconstructs the shard from scratch over its live objects
// (§6.2) and publishes the result. Readers keep searching the old
// snapshot for the whole reconstruction; writers wait on the writer
// mutex (rebuildInBackground keeps them available too). Returns
// ErrRebuildInProgress while a background rebuild is active.
func (c *shardCell) rebuild() error {
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

// rebuildInBackground is rebuild through buildAsideLocked, so no
// acknowledged write is lost and none waits. The returned channel
// receives the outcome exactly once: nil after successful publication,
// or the build/replay error. At most one background rebuild may be in
// flight; concurrent requests fail with ErrRebuildInProgress.
func (c *shardCell) rebuildInBackground() (<-chan error, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.rebuildActive {
		return nil, ErrRebuildInProgress
	}
	done := make(chan error, 1)
	c.buildAsideLocked("rebuild", c.cur.Load().rebuildFresh, func(err error) { done <- err })
	return done, nil
}
