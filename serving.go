package cssi

import (
	"context"
	"errors"
	"fmt"
	"math"
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
// flavor differs on. Do/DoContext/DoBatch/DoBatchContext on *Index and
// *ShardedIndex are one-line calls into it.

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
	// stripes is the number of goroutines a read may occupy: GOMAXPROCS
	// for a request, 1 for each read of a batch, whose pool already
	// occupies the processors (see serveBatch). A read over n snapshots is
	// dealt onto min(stripes, n) of them; a read of one snapshot may split
	// inside it when stripes >= 2. It is a field rather than a call in
	// execute so that a batch can hold its reads to one goroutine and the
	// equivalence test can run every stripe count on one host.
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
	return view{shards: ep.snaps, stripes: runtime.GOMAXPROCS(0), token: ep, snapID: ep.id, cache: s.resCache.Load(), sink: s.sink.Load(), flavor: "sharded"}
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
	keyword := len(req.Keywords) > 0
	op, spans := "search", v.n()
	if keyword {
		// The keyword path's brute-force arm bypasses the instrumented
		// cluster scan (and rejects Explain), so its trace is the
		// request envelope and wall time only.
		op, spans = "keyword", 0
	}
	tr, start := v.openTrace(req.Trace, req.Explain != nil, op, spans, 1, req.K, req.Lambda, opts, req.RequestID, req.TraceID)

	base := len(req.Dst)
	var res []Result
	var partial bool
	if keyword {
		res, err = v.executeKeywords(req.Dst, q, req.K, req.Lambda, req.Keywords)
	} else {
		res, partial = v.execute(req.Dst, q, req.K, req.Lambda, opts, req.Stats, tr)
	}
	if tr != nil {
		var kth float64
		if len(res) > base {
			kth = res[len(res)-1].Dist
		}
		v.closeTrace(tr, start, max(len(res)-base, 0), kth, partial, err, req.Stats, req.Explain, req.Trace)
	}
	if cache != nil && err == nil && !partial {
		cache.Put(v.token, key, q.X, q.Y, q.Vec, res[base:])
	}
	if req.Meta != nil {
		req.Meta.Partial, req.Meta.CacheHit, req.Meta.SnapshotID = partial, false, v.snapID
	}
	return finishCtx(ctx, res, err)
}

// searchSnap runs the query on one pinned snapshot — the one place the
// facade calls the core entry point for a single query. With sp non-nil
// the snapshot's search internals and wall time accumulate into the
// span (and the work counters with them, so st is not passed on).
func searchSnap(snap *Index, sp *SearchSpan, out []Result, q *Object, k int, lambda float64, opts core.SearchOptions, st *Stats) []Result {
	if sp == nil {
		return snap.core.SearchOptionsInto(out, q, k, lambda, opts, st)
	}
	opts.Explain = &sp.Stats
	t0 := time.Now()
	out = snap.core.SearchOptionsInto(out, q, k, lambda, opts, nil)
	sp.DurationNanos += time.Since(t0).Nanoseconds()
	return out
}

// spanAt returns the i-th of spans, or nil when nothing is recorded.
func spanAt(spans []SearchSpan, i int) *SearchSpan {
	if spans == nil {
		return nil
	}
	return &spans[i]
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
// recorded; results are bit-identical either way. A request that
// observes — st, tr (Stats, Explain, Trace, or an installed sink) —
// gets reads that share no bound, so its work counters describe the
// read that produced its answer and depend on w alone, never on timing.
//
// An exact read has one shape: the n snapshots are dealt round-robin
// onto w = min(v.stripes, n) stripes, stripe g taking snapshots g, g+w,
// g+2w, …, and every stripe is a seeded chain (see chain) — its
// snapshots are scanned in order with the k-NN list carried from one to
// the next, so within a stripe a snapshot starts from the bound its
// predecessors found instead of from an empty heap. Stripe 0 runs on the caller's
// goroutine, the others on one goroutine each, and the w stripe lists
// are k-way merged. The top-k is a pure function of the candidate set
// (knn.Heap breaks distance ties by ID) and the shards share one metric
// space's normalizers, so every w gives the same answer, bit for bit.
// w = 1 — one snapshot, a process with one scheduler thread, or a read
// of a batch — is one chain through everything: its last link's answer IS the global top-k
// and is written straight into dst, with no goroutine, no per-stripe
// list and no merge. w = n is a plain scatter.
//
// A read over several snapshots computes its query-wide state once (see
// readState): the query's distances to the first snapshot's anchor set,
// which every snapshot over that set reads; and, when w > 1 and the
// request observes nothing, one k-th bound all w stripes share
// (core.Bound), which each lowers to its own full heap's k-th distance
// as it scans. A stripe's list may then lack objects its own top-k
// would hold, but never one of the global top-k, whose distances never
// exceed the bound — every cut against it is strict.
//
// One snapshot read by a request that observes nothing, with a second
// goroutine to spare (v.stripes >= 2: a second scheduler thread, and not
// a read of a batch), may split inside the snapshot instead
// (core.SearchOptions.Striped): an idle helper walks the same frontier
// as a second stripe, and both push into the read's one heap and cut at
// its k-th distance (see core's stripe.go).
//
// An approximate read has no bound to carry: CSSIA's result is defined
// per clustering, and the documented sharded semantics are "the merge of
// the per-shard CSSIA answers". Each snapshot is then a chain of its
// own, the n of them dealt onto the same w goroutines.
func (v *view) execute(dst []Result, q *Object, k int, lambda float64, opts core.SearchOptions, st *Stats, tr *SearchTrace) (res []Result, partial bool) {
	w := min(v.stripes, v.n())
	chains, step := w, w
	var rs *readState
	if opts.Approx {
		chains, step = v.n(), v.n()
	} else if v.n() > 1 {
		rs = readStates.Get().(*readState)
		opts.Anchors = v.at(0).core.FillAnchorDists(&rs.anchors, q)
		if chains > 1 && st == nil && tr == nil {
			r := math.Inf(1)
			if opts.Radius != nil {
				r = *opts.Radius
			}
			rs.bound.Store(r)
			opts.Bound = &rs.bound
		}
	}
	if chains == 1 {
		opts.Striped = v.n() == 1 && v.stripes >= 2 && !opts.Approx && st == nil && tr == nil
		res, partial = v.chain(dst, 0, step, q, k, lambda, opts, st, shardSpans(tr))
	} else {
		res, partial = v.mergeChains(dst, chains, step, q, k, lambda, opts, st, tr)
	}
	if rs != nil {
		readStates.Put(rs)
	}
	return res, partial
}

// readState is the query-wide state of one exact read over several
// snapshots (see execute), pooled: the anchor vector is 2 KB. A pooled
// state may keep one superseded anchor set reachable until the pool
// drops it.
type readState struct {
	bound   core.Bound
	anchors core.AnchorDists
}

var readStates = sync.Pool{New: func() any { return new(readState) }}

// chain scans snapshots first, first+step, first+2·step, … in order on
// the calling goroutine, each link seeded with the list of the links
// before it (core.SearchOptions.Seed; ignored by the approximate
// algorithms, whose chains have one link), and appends the chain's
// top-k — the last link's answer — to out. A budget cut on any link
// leaves later candidates unexamined, so it makes the whole chain's
// answer partial.
func (v *view) chain(out []Result, first, step int, q *Object, k int, lambda float64, opts core.SearchOptions, st *Stats, spans []SearchSpan) (res []Result, partial bool) {
	// Only a budgeted query can be cut short, so only it carries the
	// flag: pointing opts at a local would move that local to the heap
	// on every request.
	budgeted := !opts.Deadline.IsZero() || opts.Cancel != nil
	if budgeted {
		opts.Partial = new(bool)
	}
	var cur, spare []Result
	for i, n := first, v.n(); i < n; i += step {
		link := out
		if i+step < n {
			if link = spare[:0]; link == nil {
				link = make([]Result, 0, k)
			}
		}
		opts.Seed = cur
		next := searchSnap(v.at(i), spanAt(spans, i), link, q, k, lambda, opts, st)
		partial = partial || (budgeted && *opts.Partial)
		spare, cur = cur, next
	}
	return cur, partial
}

// mergeChains runs the chains that start at snapshots 0..chains-1 on
// min(v.stripes, chains) goroutines and merges their lists into dst.
func (v *view) mergeChains(dst []Result, chains, step int, q *Object, k int, lambda float64, opts core.SearchOptions, st *Stats, tr *SearchTrace) ([]Result, bool) {
	// The goroutines get a copy of the view, so that the caller's — and
	// with it every one-chain request's — stays on the stack.
	hv, w := *v, min(v.stripes, chains)
	lists := make([][]Result, chains)
	cuts := make([]bool, chains)
	var per []Stats
	if st != nil && tr == nil {
		per = make([]Stats, w)
	}
	spans := shardSpans(tr)
	hook := loadChainHook()
	fanOut(w, func(g int) {
		var pst *Stats
		if per != nil {
			pst = &per[g]
		}
		chainAt(hook, g, false)
		for c := g; c < chains; c += w {
			lists[c], cuts[c] = hv.chain(nil, c, step, q, k, lambda, opts, pst, spans)
		}
		chainAt(hook, g, true)
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

// executeKeywords answers a keyword-constrained query over the view's
// snapshots, each of which carries the keyword filter (validate checked),
// dealt onto min(v.stripes, n) goroutines as an approximate read's are,
// and merges the per-snapshot answers into dst.
func (v *view) executeKeywords(dst []Result, q *Object, k int, lambda float64, keywords []string) ([]Result, error) {
	hv, n := *v, v.n() // a copy for the goroutines, see mergeChains
	w := min(v.stripes, n)
	lists := make([][]Result, n)
	oks := make([]bool, n)
	fanOut(w, func(g int) {
		for i := g; i < n; i += w {
			lists[i], oks[i] = hv.at(i).searchWithKeywords(q, k, lambda, keywords)
		}
	})
	for _, ok := range oks {
		// Keyword usability depends only on the keyword list, so every
		// snapshot agrees; any false means the list was unusable.
		if !ok {
			return nil, ErrUnusableKeywords
		}
	}
	return knn.MergeSorted(dst, lists, k), nil
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
// one goroutine (stripes = 1): an exact read chains through every
// snapshot and shares no bound with another query, an approximate one
// merges its per-snapshot answers, and neither splits a snapshot. Each
// worker keeps private counters and spans, folded once at the end (see
// foldSpan).
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
		tr, start := v.openTrace(nil, false, "batch", v.n(), len(exec), req.K, req.Lambda, opts, req.RequestID, req.TraceID)
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
			// Counters add up and times are the slowest worker's, as in
			// foldSpan.
			tr.Parallel = workers > 1
			for w := range traces {
				tr.GatherNanos = max(tr.GatherNanos, traces[w].GatherNanos)
				for i := range tr.Shards {
					foldSpan(&tr.Shards[i], &traces[w].Shards[i])
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

// foldSpan folds a batch worker's span w of one snapshot into the
// batch's span sp: the work counters add up, while the times — wall and
// phases — are those of the worker that spent longest in the snapshot,
// so they still fit inside one another and inside the batch's wall time.
func foldSpan(sp, w *SearchSpan) {
	times := sp.Stats
	if w.DurationNanos > sp.DurationNanos {
		sp.DurationNanos, times = w.DurationNanos, w.Stats
	}
	sp.Stats.Merge(&w.Stats)
	sp.Stats.OrderNanos, sp.Stats.ScanNanos, sp.Stats.DeltaNanos = times.OrderNanos, times.ScanNanos, times.DeltaNanos
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
	id    uint64 // sum of the per-shard publication sequence numbers
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
	e := &shardEpoch{snaps: make([]*Index, len(s.shards))}
	for i, sh := range s.shards {
		snap := sh.cur.Load()
		e.snaps[i] = snap
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

// chainAt runs hook for stripe g of a multi-chain read, before its
// chains (done false) and after them; a no-op unless hooks are compiled
// in.
func chainAt(hook func(g int, done bool), g int, done bool) {
	if chainHooks && hook != nil {
		hook(g, done)
	}
}
