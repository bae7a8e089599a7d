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
//   - Readers are lock-free: they atomically load the current snapshot
//     and run against it, with no reader count and no cache line bouncing
//     between cores. Per-query scratch comes from a sync.Pool, and a
//     snapshot stays valid — and unchanged — for as long as a reader
//     retains it.
//   - Writers serialize on a small mutex. A batch writes the shard's
//     write overlay in place (see internal/core's overlay.go) under a
//     copy of the current snapshot's header, stamping each mutation with
//     its sequence number, and publishes that header with one atomic
//     pointer store. Readers of an earlier snapshot ignore every stamp
//     past its sequence, so they finish against the state they loaded.
//   - A rebuild reconstructs off to the side and publishes the result, so
//     even a full §6.2 rebuild never stalls a reader; the background one
//     also keeps writers available by logging their mutations and
//     replaying them into the fresh index before it is published (see
//     buildAsideLocked).
//
// Publishing costs a header copy, 208 bytes in two allocations with the
// facade's, whatever the shard or its overlay holds; an enabled keyword
// filter adds its directory copy (8 KiB). Reads pay nothing.
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
	// overlay ops goes live (initial wrap, compaction, rebuild). Writes
	// leave it alone, so it measures how stale the immutable base under
	// the delta is.
	baseNS atomic.Int64

	// deltaThreshold is the resolved overlay compaction threshold, always
	// positive: the overlay size at which a write starts a background
	// fold. Resolved from the index's build options at wrap time;
	// adjustable via ShardedIndex.SetDeltaThreshold.
	deltaThreshold atomic.Int64

	// compactions counts completed overlay compactions (background and
	// explicit) — the /metrics cssi_shard_compactions_total series.
	compactions atomic.Int64

	// compactObs, when set, is invoked with each compaction's duration
	// after its snapshot publishes (the /metrics latency histogram hook).
	compactObs atomic.Pointer[func(time.Duration)]

	// mu serializes writers: copy the header → write → publish, and the
	// rebuild-completion replay. Readers never touch it.
	mu sync.Mutex
	// aside is non-nil while a background reconstruction is in flight —
	// a rebuild or an overlay compaction, one protocol
	// (buildAsideLocked) — and is closed once it has published or
	// failed. Meanwhile every published mutation is appended to
	// rebuildLog so it can be replayed onto the freshly built index
	// before publication. Both fields are guarded by mu.
	aside      chan struct{}
	rebuildLog []Op
}

// ErrRebuildInProgress is returned when a background rebuild is
// requested while a background rebuild (or a background overlay
// compaction, which uses the same replay protocol) is still running.
var ErrRebuildInProgress = errors.New("cssi: rebuild already in progress")

// ErrInvalidDeltaThreshold is returned by the delta-threshold setters
// for negative values. Valid values are 0 (library default) and any
// positive op count.
var ErrInvalidDeltaThreshold = errors.New("cssi: delta compact threshold must be 0 (default) or positive")

// resolveDeltaThreshold maps an Options-style threshold (not positive =
// default) to the cell's internal resolved form.
func resolveDeltaThreshold(t int) int64 {
	if t <= 0 {
		return DefaultDeltaCompactThreshold
	}
	return int64(t)
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

// applyOp applies one mutation to an unpublished index, into its write
// overlay. It never folds: the cell folds in the background.
func applyOp(idx *Index, op Op) error {
	switch op.Kind {
	case OpInsert:
		return idx.insert(op.Object)
	case OpDelete:
		return idx.delete(op.ID)
	case OpUpdate:
		return idx.update(op.Object)
	default:
		return fmt.Errorf("cssi: unknown op kind %d", op.Kind)
	}
}

// apply writes the ops in order under a copy of the current snapshot's
// header and publishes it as ONE new snapshot — all under the writer
// mutex, so readers never observe a partially applied batch. All or
// nothing: if an op fails, the overlay is rolled back to the current
// snapshot, nothing is published and the error is returned. Once the
// overlay reaches the compaction threshold a background fold publishes a
// fresh flat base.
func (c *shardCell) apply(ops ...Op) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	cur := c.cur.Load()
	next := cur.cloneWithDelta()
	for _, op := range ops {
		if err := applyOp(next, op); err != nil {
			next.core.Rollback(cur.core)
			return err
		}
	}
	c.publish(next)
	if c.aside != nil {
		c.rebuildLog = append(c.rebuildLog, ops...)
	} else if int64(next.DeltaOps()) >= c.deltaThreshold.Load() {
		// Threshold crossed. A fold that fails loses nothing: the current
		// snapshot already holds every acknowledged write (base+delta
		// answers are exact), and the next crossing retries.
		start := time.Now()
		c.buildAsideLocked("compaction", next.compact, func(err error) {
			if err == nil {
				c.countCompaction(start)
			}
		})
	}
	return nil
}

// buildAsideLocked replaces the snapshot with what build returns while
// both readers AND writers stay available — the one protocol behind the
// background rebuild and the background overlay compaction. build runs
// on its own goroutine with no lock held: readers serve from the
// current snapshot, writers write and publish as usual, and because
// aside is set their ops accumulate in rebuildLog. Once build
// returns, the log is replayed, in order, into the result's write
// overlay — the result is still private to the goroutine, so nothing
// is published per op; replaying the exact sequence of acknowledged ops
// onto the live set they originally applied to cannot conflict, and a
// failure aborts publication — and the result is published, its base
// stamped as new. The next fold anchors and places the replayed rows. done
// receives the outcome, under c.mu, exactly once; on an error the
// current snapshot, which already contains every acknowledged write,
// stays published. aside is closed after done. Caller must hold c.mu.
func (c *shardCell) buildAsideLocked(what string, build func() (*Index, error), done func(error)) {
	aside := make(chan struct{})
	c.aside, c.rebuildLog = aside, nil
	go func() {
		fresh, err := build()

		c.mu.Lock()
		defer c.mu.Unlock()
		defer close(aside)
		log := c.rebuildLog
		c.aside, c.rebuildLog = nil, nil
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
			c.baseNS.Store(c.publishedNS.Load())
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

// awaitAsideLocked returns, with c.mu held as on entry, once no
// background reconstruction is in flight; it releases c.mu while it
// waits, so the reconstruction can replay and publish.
func (c *shardCell) awaitAsideLocked() {
	for c.aside != nil {
		aside := c.aside
		c.mu.Unlock()
		<-aside
		c.mu.Lock()
	}
}

// compact synchronously folds the current snapshot's write overlay into
// a flat base and publishes it, holding the writer mutex for the whole
// fold: a fold point once it returns. An in-flight background fold or
// rebuild, which may have taken its snapshot before the latest writes,
// is waited for first. A no-op when the snapshot is already flat.
func (c *shardCell) compact() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.awaitAsideLocked()
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
	next := c.cur.Load().cloneWithDelta()
	next.EnableKeywordFilter()
	c.publish(next)
}

// rebuild reconstructs the shard from scratch over its live objects
// (§6.2) and publishes the result, after any in-flight background
// reconstruction has. Readers keep searching the old snapshot for the
// whole reconstruction; writers wait on the writer mutex
// (rebuildInBackground keeps them available too).
func (c *shardCell) rebuild() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.awaitAsideLocked()
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
	if c.aside != nil {
		return nil, ErrRebuildInProgress
	}
	done := make(chan error, 1)
	c.buildAsideLocked("rebuild", c.cur.Load().rebuildFresh, func(err error) { done <- err })
	return done, nil
}
