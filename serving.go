package cssi

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/knn"
	"repro/internal/obs"
	"repro/internal/rescache"
)

// This file is the request pipeline both index flavors serve through:
// serve (one query) and serveBatch run validate → budget → cache probe
// → trace → execute → cache fill once, over a view of whatever the
// flavor differs on. Every shape is execute's one read: a keyword
// request too, with its candidates as the row predicate, unless they are
// few enough to evaluate directly (see keywords.go). Do/DoContext/
// DoBatch/DoBatchContext on *Index and *ShardedIndex are one-line calls
// into it.

// ErrInvalidDeadline is returned by Do/DoContext/DoBatch when
// SearchRequest.Deadline (or BatchSearchRequest.Deadline) is negative
// — a budget either exists (> 0) or doesn't (0); a negative one is a
// caller bug worth a typed error rather than silent treatment as
// "already expired". Test with errors.Is.
var ErrInvalidDeadline = errors.New("cssi: negative deadline")

// CacheMode selects a request's participation in the index's result
// cache, following the zero-value-means-default contract of the rest
// of SearchRequest.
type CacheMode int

const (
	// CacheDefault (the zero value) follows the index: the request uses
	// the result cache iff one is enabled (EnableResultCache). A bare
	// *Index never caches — it publishes no immutable snapshots whose
	// identity could invalidate entries.
	CacheDefault CacheMode = iota
	// CacheOn asks for cache participation explicitly; a no-op when the
	// index has no cache enabled.
	CacheOn
	// CacheOff bypasses the cache for this request: no probe, no fill.
	CacheOff
)

// CacheStats is a point-in-time snapshot of a result cache's counters
// (see ResultCacheStats).
type CacheStats = rescache.Stats

// ResponseMeta is the optional per-request response metadata block:
// point SearchRequest.Meta (or BatchSearchRequest.Meta) at one and Do
// fills it. Do overwrites Partial, CacheHit and SnapshotID on every
// request that passes validation; QueueWait is left untouched — it
// belongs to serving layers that queue requests ahead of the index (the
// bundled HTTP server's admission gate stamps it).
type ResponseMeta struct {
	// Partial reports the answer was truncated by the request's time
	// budget (Deadline, or a context deadline): the results are the
	// exact top-k of the candidates examined before the budget fired —
	// an admissible prefix, every distance is a true distance — but
	// closer objects may remain unvisited. Partial answers are never
	// cached. For a batch, Partial reports that any query was truncated.
	Partial bool
	// CacheHit reports the answer was served from the result cache —
	// bit-identical to what searching the current snapshot would
	// return, by the cache's snapshot-identity contract. For a batch,
	// CacheHit reports that every query of the batch was served from
	// the cache.
	CacheHit bool
	// SnapshotID is the publication sequence number of the snapshot
	// that answered the request: 0 on a bare *Index, and on a
	// *ShardedIndex the publication count summed across shards — the
	// publication count itself on one shard. It changes whenever a
	// write, compaction, or rebuild publishes — the same event that
	// invalidates the cache.
	SnapshotID uint64
	// QueueWait is the time the request spent queued before execution.
	// The index never fills it; admission-controlled servers do.
	QueueWait time.Duration
}

// view is everything the request pipeline needs to know about the
// index flavor it serves: the two flavors differ only in these
// fields.
type view struct {
	// snap is the one pinned snapshot of a bare *Index — itself; shards
	// are the P snapshots a *ShardedIndex had published when the request
	// arrived. Exactly one of the two is set. They are separate fields
	// rather than one slice so that a bare index's view stays on the
	// stack: the scatter hands its slice to goroutines, which would
	// move a stack-backed one-element slice — and the view with it — to
	// the heap on every request.
	snap   *Index
	shards []*Index
	// cores are the shards' core snapshots, the list an exact read over
	// them hands to the core (see execute).
	cores []*core.Index
	// stripes is the number of goroutines a read may occupy: GOMAXPROCS
	// for a request, 1 for each read of a batch, whose pool already
	// occupies the processors (see serveBatch), and for a request that
	// asks for its counters. An exact read takes a second stripe on the
	// standing helper when stripes >= 2; an approximate read over n
	// snapshots is dealt onto min(stripes, n) goroutines. It is a field
	// rather than a call in execute so that a batch can hold its reads to
	// one goroutine and the equivalence test can run both stripe counts
	// on one host.
	stripes int
	// token is the result cache's snapshot identity (the snapshot, or
	// the interned per-shard snapshot vector) and snapID the
	// ResponseMeta.SnapshotID of answers served from this view.
	token  any
	snapID uint64
	// cache is the flavor's result cache, nil when none is enabled.
	cache *rescache.Cache
	// sink is the always-on trace collector, nil when none is
	// installed; flavor labels the traces it records.
	sink   *obs.Sink
	flavor string
}

func (x *Index) view() view {
	return view{snap: x, stripes: runtime.GOMAXPROCS(0), snapID: x.snapID, sink: x.sink, flavor: "index"}
}

func (s *ShardedIndex) view() view {
	ep := s.epochToken()
	return view{shards: ep.snaps, cores: ep.cores, stripes: runtime.GOMAXPROCS(0), token: ep, snapID: ep.id, cache: s.resCache.Load(), sink: s.sink.Load(), flavor: "sharded"}
}

// n is the number of pinned snapshots and at the i-th of them.
func (v *view) n() int {
	if v.snap != nil {
		return 1
	}
	return len(v.shards)
}

func (v *view) at(i int) *Index {
	if v.snap != nil {
		return v.snap
	}
	return v.shards[i]
}

// resolveBudget validates the serving knobs and converts the relative
// Deadline plus the context's deadline into the absolute instant the
// core loops poll. The tighter of the two deadlines wins, so ctx
// deadline and Deadline compose.
func resolveBudget(ctx context.Context, d time.Duration, cache CacheMode) (deadline time.Time, err error) {
	if d < 0 {
		return time.Time{}, fmt.Errorf("%w: got %v", ErrInvalidDeadline, d)
	}
	if cache < CacheDefault || cache > CacheOff {
		return time.Time{}, fmt.Errorf("%w: unknown CacheMode %d", ErrUnsupportedRequest, cache)
	}
	if d > 0 {
		deadline = time.Now().Add(d)
	}
	if cd, ok := ctx.Deadline(); ok && (deadline.IsZero() || cd.Before(deadline)) {
		deadline = cd
	}
	return deadline, nil
}

// finishCtx maps a mid-flight context cancellation to the context's
// error: explicit cancellation surfaces as ctx.Err() (the budget
// machinery already stopped the search), while a context deadline
// behaves exactly like SearchRequest.Deadline — partial results, no
// error.
func finishCtx[T any](ctx context.Context, res T, err error) (T, error) {
	if err == nil && ctx.Err() == context.Canceled {
		var zero T
		return zero, ctx.Err()
	}
	return res, err
}

// serve is the request pipeline of Do/DoContext on every flavor: ctx
// cancellation and deadline compose with SearchRequest.Deadline. A
// context that is already Done fails fast with ctx.Err(); a context
// deadline tightens the request's budget (the partial-results semantics
// of Deadline apply); explicit cancellation mid-search stops the query
// at the next budget check and returns ctx.Err(). A nil ctx is treated
// as context.Background().
//
// When the view has a result cache and the request participates
// (CacheMode; Explain and Trace callers want the internals of a real
// execution, so they always execute), the probe and fill are keyed to
// the pinned snapshots: a hit is returned without executing
// (bit-identical by snapshot identity), a miss executes against those
// same snapshots and fills the cache unless the answer was partial or
// errored. Validation runs before the probe, so a cached answer can
// never front-run the rejection of a malformed request.
func serve(ctx context.Context, v view, req *SearchRequest) ([]Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := req.validate(&v); err != nil {
		return nil, err
	}
	deadline, err := resolveBudget(ctx, req.Deadline, req.Cache)
	if err != nil {
		return nil, err
	}
	q := req.Query

	cache := v.cache
	if req.Cache == CacheOff || req.Explain != nil || req.Trace != nil {
		cache = nil
	}
	var key rescache.Key
	if cache != nil {
		key = cacheKey(q, req.K, req.Lambda, req.Approx, req.Keywords, req.Radius, req.Window)
		if res, ok := cache.Get(v.token, key, q.X, q.Y, q.Vec, req.Dst); ok {
			if req.Meta != nil {
				req.Meta.Partial, req.Meta.CacheHit, req.Meta.SnapshotID = false, true, v.snapID
			}
			return res, nil
		}
	}

	opts := core.SearchOptions{
		Approx: req.Approx, Deadline: deadline, Cancel: ctx.Done(), Radius: req.Radius, Window: req.Window,
	}
	if req.Stats != nil || req.Explain != nil {
		// A request that asks for its counters gets the one-stripe read,
		// whose counters depend on the snapshots alone, never on timing.
		v.stripes = 1
	}
	keyword := len(req.Keywords) > 0
	op, spans := "search", v.n()
	if keyword {
		// A keyword request's brute-force arm reads no cluster (and
		// Explain is rejected), so its trace is the request envelope and
		// wall time only, whichever arm answers.
		op, spans = "keyword", 0
	}
	tr, start := v.openTrace(req.Trace, op, spans, 1, req.K, req.Lambda, opts, req.RequestID, req.TraceID)
	// Explain with no trace to fold it from: core fills it directly, and
	// Stats, which core then leaves alone, gets the same counters after.
	st := req.Stats
	var explained Stats
	if tr == nil && req.Explain != nil {
		opts.Explain, st = req.Explain, nil
		explained, req.Explain.Stats = req.Explain.Stats, Stats{}
	}

	base := len(req.Dst)
	var res []Result
	var partial bool
	if keyword {
		// The keywords are resolved once over the view. A selective set
		// (at most keywordBruteForceCap candidates per pinned snapshot,
		// counted over all of them) is evaluated directly; a broad one
		// is the exact read with the candidates as its row predicate —
		// budgeted, cancellable and striped like any read, counters and
		// spans left out.
		var rows [][]uint32
		var total int
		if rows, total, err = v.keywordRows(req.Keywords); err == nil {
			if total <= keywordBruteForceCap*v.n() {
				res = v.evaluateRows(req.Dst, q, req.K, req.Lambda, rows, total)
			} else {
				opts.Allow = newIDSet(rows, total).has
				res, partial = v.execute(req.Dst, q, req.K, req.Lambda, opts, nil, nil)
			}
		}
	} else {
		res, partial = v.execute(req.Dst, q, req.K, req.Lambda, opts, st, tr)
	}
	var kth float64
	if len(res) > base {
		kth = res[len(res)-1].Dist
	}
	if tr != nil {
		v.closeTrace(tr, start, max(len(res)-base, 0), kth, partial, err, req.Stats, req.Explain, req.Trace)
	} else if es := opts.Explain; es != nil {
		if req.Stats != nil {
			req.Stats.Add(&es.Stats)
		}
		es.Stats.Add(&explained)
		es.KthDistance = kth
	}
	if cache != nil && err == nil && !partial {
		cache.Put(v.token, key, q.X, q.Y, q.Vec, res[base:])
	}
	if req.Meta != nil {
		req.Meta.Partial, req.Meta.CacheHit, req.Meta.SnapshotID = partial, false, v.snapID
	}
	return finishCtx(ctx, res, err)
}

// shardSpans returns the per-snapshot spans of tr, nil when nothing is
// recorded.
func shardSpans(tr *SearchTrace) []SearchSpan {
	if tr == nil {
		return nil
	}
	return tr.Shards
}

// execute answers one query over the view's pinned snapshots, appending
// the global top-k to dst and reporting whether the time budget cut any
// snapshot's scan short. With tr non-nil every snapshot's span is
// recorded; results are bit-identical either way.
//
// An exact read is one read with one k-NN heap whatever the number of
// snapshots and whatever rows opts admits — a range, a window or a
// keyword request's candidates (core.SearchShardsInto): the snapshots
// are visited in order with the heap carried from one to the next, so
// each prunes against the k-th distance of everything read before it,
// and the query's anchor distances are computed once. The top-k is a
// pure function of the candidate set (knn.Heap breaks distance ties by
// ID) and the shards share one metric space's normalizers, so the
// answer is the flat index's, bit for bit. With a second goroutine to spare (v.stripes >=
// 2: a second scheduler thread, not a read of a batch and not a request
// that asks for its counters) the read is offered to the standing stripe
// helper (core.SearchOptions.Striped): caller and helper claim whole
// snapshots from one cursor and split the last one's frontier in chunks,
// both pushing into the one heap and cutting at its k-th distance (see
// core's stripe.go) — no goroutine per read, no per-stripe list and no
// merge. A traced read over several snapshots keeps both stripes: core
// writes each snapshot's span as a stripe walks it and folds both walks
// of the last snapshot into its span, and the trace is marked Parallel
// when the helper took a stripe, as its spans then overlap. One snapshot
// under a trace stays one stripe, so that its span is the counted
// read's.
//
// An approximate read has no bound to carry: CSSIA's result is defined
// per clustering, and the documented sharded semantics are "the merge of
// the per-shard CSSIA answers" (see mergeEach).
func (v *view) execute(dst []Result, q *Object, k int, lambda float64, opts core.SearchOptions, st *Stats, tr *SearchTrace) (res []Result, partial bool) {
	n := v.n()
	if opts.Approx && n > 1 {
		return v.mergeEach(dst, q, k, lambda, opts, st, tr)
	}
	// Core keeps a counted read one stripe; one snapshot under a trace
	// stays one stripe too, so that its span is the counted read's.
	opts.Striped = v.stripes >= 2 && (tr == nil || n > 1)
	if tr != nil {
		opts.Parallel = &tr.Parallel
	}
	// Only a budgeted query can be cut short, so only it carries the
	// flag: pointing opts at a local would move that local to the heap
	// on every request.
	if !opts.Deadline.IsZero() || opts.Cancel != nil {
		opts.Partial = new(bool)
	}
	var one [1]*core.Index
	xs := v.cores
	if xs == nil {
		one[0] = v.snap.core
		xs = one[:]
	}
	res = core.SearchShardsInto(dst, xs, q, k, lambda, opts, shardSpans(tr), st)
	return res, opts.Partial != nil && *opts.Partial
}

// mergeEach answers an approximate read over several snapshots: each
// snapshot's CSSIA answer, the n of them dealt onto min(v.stripes, n)
// goroutines, merged into dst.
func (v *view) mergeEach(dst []Result, q *Object, k int, lambda float64, opts core.SearchOptions, st *Stats, tr *SearchTrace) ([]Result, bool) {
	// The goroutines get a copy of the view, so that the caller's — and
	// with it every exact request's — stays on the stack.
	hv, n := *v, v.n()
	w := min(v.stripes, n)
	lists := make([][]Result, n)
	cuts := make([]bool, n)
	var per []Stats
	if st != nil && tr == nil {
		per = make([]Stats, w)
	}
	spans := shardSpans(tr)
	budgeted := !opts.Deadline.IsZero() || opts.Cancel != nil
	fanOut(w, func(g int) {
		var pst *Stats
		if per != nil {
			pst = &per[g]
		}
		for i := g; i < n; i += w {
			o := opts
			if budgeted {
				o.Partial = &cuts[i]
			}
			var sp []SearchSpan
			if spans != nil {
				sp = spans[i : i+1]
			}
			lists[i] = core.SearchShardsInto(nil, hv.cores[i:i+1], q, k, lambda, o, sp, pst)
		}
	})
	gatherStats(st, per)
	if dst == nil {
		dst = make([]Result, 0, k)
	}
	g := time.Now()
	dst = knn.MergeSorted(dst, lists, k)
	if tr != nil {
		tr.Parallel = w > 1
		tr.GatherNanos += time.Since(g).Nanoseconds()
	}
	return dst, anyTrue(cuts)
}

// serveBatch is the request pipeline of DoBatch/DoBatchContext on every
// flavor, composing with ctx exactly like serve. The budget is shared
// by the whole batch (one absolute instant, not per query), so queries
// that start late inherit a tighter slice and are truncated to partial
// prefixes. The whole batch runs against the snapshots pinned when it
// arrived, even while writers publish newer ones concurrently.
//
// With a participating cache each query of the batch is probed
// individually; only the misses execute (as one smaller batch against
// the same snapshots) and their complete answers fill the cache.
//
// A batch is a pool of single reads: min(Parallelism, GOMAXPROCS, len)
// workers, worker 0 on the caller's goroutine, draw queries from one
// cursor and answer each with execute, the read Do runs. The pool
// already occupies the processors it may use, so each read is held to
// one goroutine (stripes = 1): an exact read is the one-stripe walk of
// every snapshot into its one heap, an approximate one merges its
// per-snapshot answers, and none is offered to the stripe helper. Each
// worker keeps private counters and spans, folded once at the end (see
// ShardSpan.Fold).
func serveBatch(ctx context.Context, v view, req *BatchSearchRequest) ([][]Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := req.validate(v.at(0).Dim()); err != nil {
		return nil, err
	}
	deadline, err := resolveBudget(ctx, req.Deadline, req.Cache)
	if err != nil {
		return nil, err
	}
	queries := req.Queries
	out := make([][]Result, len(queries))

	// exec are the queries that execute: all of them, or the cache
	// misses, whose positions in the batch are missIdx.
	exec := queries
	cache := v.cache
	if req.Cache == CacheOff {
		cache = nil
	}
	var keys []rescache.Key
	var missIdx []int
	if cache != nil {
		keys = make([]rescache.Key, len(queries))
		for i := range queries {
			q := &queries[i]
			keys[i] = cacheKey(q, req.K, req.Lambda, req.Approx, nil, nil, nil)
			if res, ok := cache.Get(v.token, keys[i], q.X, q.Y, q.Vec, nil); ok {
				out[i] = res
			} else {
				missIdx = append(missIdx, i)
			}
		}
		if len(missIdx) < len(queries) {
			exec = make([]Object, len(missIdx))
			for j, i := range missIdx {
				exec[j] = queries[i]
			}
		}
	}

	var partials []bool
	if len(exec) > 0 {
		opts := core.SearchOptions{Approx: req.Approx, Deadline: deadline, Cancel: ctx.Done()}
		if !deadline.IsZero() || opts.Cancel != nil {
			partials = make([]bool, len(exec))
		}
		tr, start := v.openTrace(nil, "batch", v.n(), len(exec), req.K, req.Lambda, opts, req.RequestID, req.TraceID)
		workers := min(runtime.GOMAXPROCS(0), len(exec))
		if req.Parallelism > 0 {
			workers = min(workers, req.Parallelism)
		}
		v.stripes = 1
		sub := make([][]Result, len(exec))
		var per []Stats
		var traces []SearchTrace // one private trace per worker, folded into tr
		if tr != nil {
			traces = make([]SearchTrace, workers)
		} else if req.Stats != nil {
			per = make([]Stats, workers)
		}
		var next atomic.Int64
		fanOut(workers, func(w int) {
			var pst *Stats
			if per != nil {
				pst = &per[w]
			}
			var wtr *SearchTrace
			if traces != nil {
				wtr = &traces[w]
				wtr.Shards = make([]SearchSpan, v.n())
			}
			for qi := int(next.Add(1)) - 1; qi < len(exec); qi = int(next.Add(1)) - 1 {
				var cut bool
				if sub[qi], cut = v.execute(nil, &exec[qi], req.K, req.Lambda, opts, pst, wtr); cut {
					partials[qi] = true
				}
			}
		})
		gatherStats(req.Stats, per)
		if tr != nil {
			// Counters add up and times are the slowest worker's
			// (ShardSpan.Fold).
			tr.Parallel = workers > 1
			for w := range traces {
				tr.GatherNanos = max(tr.GatherNanos, traces[w].GatherNanos)
				for i := range tr.Shards {
					tr.Shards[i].Fold(&traces[w].Shards[i])
				}
			}
			// The trace records the result counts summed across the
			// batch and the largest per-query k-NN bound (each query's
			// kth distance is its own bound, so the max is the batch's
			// worst case, mirroring what the single-query path records).
			var kth float64
			total := 0
			for _, res := range sub {
				total += len(res)
				if len(res) > 0 && res[len(res)-1].Dist > kth {
					kth = res[len(res)-1].Dist
				}
			}
			v.closeTrace(tr, start, total, kth, anyTrue(partials), nil, req.Stats, nil, nil)
		}
		if cache == nil {
			out = sub
		}
		for j, i := range missIdx {
			out[i] = sub[j]
			if partials == nil || !partials[j] {
				q := &queries[i]
				cache.Put(v.token, keys[i], q.X, q.Y, q.Vec, sub[j])
			}
		}
	}
	if req.Meta != nil {
		req.Meta.Partial = anyTrue(partials)
		req.Meta.CacheHit = cache != nil && len(exec) == 0 && len(queries) > 0
		req.Meta.SnapshotID = v.snapID
	}
	return finishCtx(ctx, out, nil)
}

// fanOut runs fn(0), …, fn(w-1) concurrently — fn(0) on the calling
// goroutine, so w = 1 spawns nothing — and returns after all finish. A
// panic on a spawned goroutine is re-raised on the calling one, where
// the caller (or net/http) can recover it instead of losing the process.
func fanOut(w int, fn func(g int)) {
	var wg sync.WaitGroup
	var panicked atomic.Pointer[any]
	for g := 1; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicked.Store(&r)
				}
			}()
			fn(g)
		}()
	}
	fn(0)
	wg.Wait()
	if r := panicked.Load(); r != nil {
		panic(*r)
	}
}

// gatherStats folds per-shard work counters into the caller's Stats.
func gatherStats(st *Stats, per []Stats) {
	if st == nil {
		return
	}
	for i := range per {
		st.Add(&per[i])
	}
}

func anyTrue(b []bool) bool {
	for _, v := range b {
		if v {
			return true
		}
	}
	return false
}

// cacheKey builds a query's cache key, shape included.
func cacheKey(q *Object, k int, lambda float64, approx bool, keywords []string, radius *float64, window *Window) rescache.Key {
	key := rescache.Key{
		Hash:   rescache.HashQuery(q.X, q.Y, q.Vec),
		K:      k,
		Lambda: lambda,
		Approx: approx,
	}
	if radius != nil {
		key.Ranged, key.Radius = true, *radius
	}
	if window != nil {
		key.Windowed, key.Window = true, [4]float64{window.LoX, window.LoY, window.HiX, window.HiY}
	}
	if len(keywords) > 0 {
		key.Keywords = canonicalKeywords(keywords)
	}
	return key
}

// canonicalKeywords lowercases, sorts and joins the keyword list so
// order and case variations of one keyword set share a cache entry
// (the keyword filter's AND semantics are order-insensitive).
func canonicalKeywords(keywords []string) string {
	kw := make([]string, len(keywords))
	for i, w := range keywords {
		kw[i] = strings.ToLower(w)
	}
	sort.Strings(kw)
	return strings.Join(kw, "\x00")
}

// shardEpoch is the composite snapshot identity of a ShardedIndex: the
// vector of per-shard snapshot pointers, interned so one epoch object
// (whose pointer is the cache token) stands for one combination of
// shard snapshots. Holding the snapshots pins them, which is what
// makes pointer identity collision-free (see package rescache) — and
// what lets a request run against the epoch's snapshots directly.
type shardEpoch struct {
	snaps []*Index
	cores []*core.Index // snaps[i].core
	id    uint64        // sum of the per-shard publication sequence numbers
}

// epochToken returns the current epoch, reusing the interned one while
// no shard has republished. Two racing refreshes may mint two distinct
// epochs for the same snapshot vector; that costs one wholesale cache
// invalidation (a fresh epoch never matches old entries), never a
// stale hit — and publication monotonicity guarantees an entry filled
// under an epoch was computed on exactly that epoch's snapshots
// whenever the epoch is still current.
func (s *ShardedIndex) epochToken() *shardEpoch {
	cur := s.epoch.Load()
	if cur != nil {
		same := true
		for i, sh := range s.shards {
			if sh.cur.Load() != cur.snaps[i] {
				same = false
				break
			}
		}
		if same {
			return cur
		}
	}
	e := &shardEpoch{snaps: make([]*Index, len(s.shards)), cores: make([]*core.Index, len(s.shards))}
	for i, sh := range s.shards {
		snap := sh.cur.Load()
		e.snaps[i], e.cores[i] = snap, snap.core
		e.id += snap.snapID
	}
	s.epoch.CompareAndSwap(cur, e)
	return e
}

// EnableResultCache installs a snapshot-keyed result cache over the
// whole index, holding at most capacity entries (<= 0 selects
// rescache.DefaultCapacity), and makes it the index default
// (CacheDefault requests use it). Safe to call concurrently with
// searches. A cached answer is served only against the very snapshots
// it was computed from — the cache key's snapshot identity is the
// vector of per-shard snapshots — so hits are bit-identical to uncached
// searches by construction, and a write, compaction, or rebuild on any
// shard invalidates wholesale.
func (s *ShardedIndex) EnableResultCache(capacity int) {
	s.resCache.Store(rescache.New(capacity))
}

// DisableResultCache removes the result cache (requests execute
// normally, CacheOn becomes a no-op).
func (s *ShardedIndex) DisableResultCache() {
	s.resCache.Store(nil)
}

// ResultCacheStats returns the cache's counters; ok is false when no
// cache is enabled.
func (s *ShardedIndex) ResultCacheStats() (CacheStats, bool) {
	if cache := s.resCache.Load(); cache != nil {
		return cache.Stats(), true
	}
	return CacheStats{}, false
}
