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
	// stripes is the number of goroutines a read over the shards is dealt
	// onto: scatterDegree(len(shards)), 1 for a bare index. It is a field
	// rather than a call in execute so that the equivalence test can run
	// every stripe count on one host; nothing else sets it.
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
	return view{snap: x, stripes: 1, snapID: x.snapID, sink: x.sink, flavor: "index"}
}

func (s *ShardedIndex) view() view {
	ep := s.epochToken()
	return view{shards: ep.snaps, stripes: scatterDegree(len(ep.snaps)), token: ep, snapID: ep.id, cache: s.resCache.Load(), sink: s.sink.Load(), flavor: "sharded"}
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

// each runs fn once per pinned snapshot (see scatter) and returns after
// all finish.
func (v *view) each(fn func(i int, snap *Index)) {
	if v.snap != nil {
		fn(0, v.snap)
		return
	}
	scatter(v.shards, fn)
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
		key = cacheKey(q, req.K, req.Lambda, req.Approx, req.Route, req.RouteTarget, req.Keywords)
		if res, ok := cache.Get(v.token, key, q.X, q.Y, q.Vec, req.Dst); ok {
			if req.Meta != nil {
				req.Meta.Partial, req.Meta.CacheHit, req.Meta.SnapshotID = false, true, v.snapID
			}
			return res, nil
		}
	}

	opts := core.SearchOptions{
		Approx: req.Approx, Route: req.Route, RouteTarget: req.RouteTarget,
		Deadline: deadline, Cancel: ctx.Done(),
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
// recorded; results are bit-identical either way, and so are the work
// counters, because observing never changes the shape of the read.
//
// An exact read has one shape: the n snapshots are dealt round-robin
// onto w = v.stripes stripes, stripe g taking snapshots g, g+w, g+2w, …,
// and every stripe is a seeded chain (see chain) — its snapshots are
// scanned in order with the k-NN list carried from one to the next, so
// within a stripe a snapshot starts from the bound its predecessors
// found instead of from an empty heap. Stripe 0 runs on the caller's
// goroutine, the others on one goroutine each, and the w stripe lists
// are k-way merged. The top-k is a pure function of the candidate set
// (knn.Heap breaks distance ties by ID) and the shards share one metric
// space's normalizers, so every w gives the same answer, bit for bit.
// w = 1 — one snapshot, or a process with one scheduler thread — is one
// chain through everything: its last link's answer IS the global top-k
// and is written straight into dst, with no goroutine, no per-stripe
// list and no merge. w = n is a plain scatter. The stripes share no
// bound with each other, so the work counters depend on w alone, never
// on timing.
//
// An approximate read has no bound to carry: CSSIA's result is defined
// per clustering, and the documented sharded semantics are "the merge of
// the per-shard CSSIA answers". Each snapshot is then a chain of its
// own, the n of them dealt onto the same w goroutines.
func (v *view) execute(dst []Result, q *Object, k int, lambda float64, opts core.SearchOptions, st *Stats, tr *SearchTrace) (res []Result, partial bool) {
	chains, step := v.stripes, v.stripes
	if opts.Approx {
		chains, step = v.n(), v.n()
	}
	if chains == 1 {
		return v.chain(dst, 0, step, q, k, lambda, opts, st, shardSpans(tr))
	}
	return v.mergeChains(dst, chains, step, q, k, lambda, opts, st, tr)
}

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
// v.stripes goroutines and merges their lists into dst.
func (v *view) mergeChains(dst []Result, chains, step int, q *Object, k int, lambda float64, opts core.SearchOptions, st *Stats, tr *SearchTrace) ([]Result, bool) {
	// The goroutines get a copy of the view, so that the caller's — and
	// with it every one-chain request's — stays on the stack.
	hv, w := *v, v.stripes
	lists := make([][]Result, chains)
	cuts := make([]bool, chains)
	var per []Stats
	if st != nil && tr == nil {
		per = make([]Stats, w)
	}
	spans := shardSpans(tr)
	fanOut(w, func(g int) {
		var pst *Stats
		if per != nil {
			pst = &per[g]
		}
		for c := g; c < chains; c += w {
			lists[c], cuts[c] = hv.chain(nil, c, step, q, k, lambda, opts, pst, spans)
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

// executeKeywords answers a keyword-constrained query over the view's
// snapshots, each of which carries the keyword filter (validate checked),
// and merges the per-snapshot answers into dst.
func (v *view) executeKeywords(dst []Result, q *Object, k int, lambda float64, keywords []string) ([]Result, error) {
	n := v.n()
	lists := make([][]Result, n)
	oks := make([]bool, n)
	v.each(func(i int, snap *Index) {
		lists[i], oks[i] = snap.searchWithKeywords(q, k, lambda, keywords)
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
			keys[i] = cacheKey(q, req.K, req.Lambda, req.Approx, req.Route, req.RouteTarget, nil)
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
		opts := core.SearchOptions{
			Approx: req.Approx, Route: req.Route, RouteTarget: req.RouteTarget,
			Deadline: deadline, Cancel: ctx.Done(),
		}
		if !deadline.IsZero() || opts.Cancel != nil {
			partials = make([]bool, len(exec))
		}
		tr, start := v.openTrace(nil, false, "batch", v.n(), len(exec), req.K, req.Lambda, opts, req.RequestID, req.TraceID)
		sub, err := v.executeBatch(exec, req.K, req.Lambda, req.Parallelism, opts, req.Stats, partials, tr)
		if tr != nil {
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
			v.closeTrace(tr, start, total, kth, anyTrue(partials), err, req.Stats, nil, nil)
		}
		if err != nil {
			return nil, err
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

// executeBatch answers the queries over the view's pinned snapshots.
// partials, when non-nil, receives the per-query budget cuts. With tr
// non-nil one span per snapshot is recorded: work counters and wall
// time, plus the gather merge time.
//
// An exact batch parallelises over the queries and chains within a
// query (see chainBatch). An approximate batch has no bound to carry: it
// runs whole through each snapshot's worker pool, and each query's
// per-snapshot lists are merged.
func (v *view) executeBatch(queries []Object, k int, lambda float64, workers int, opts core.SearchOptions, st *Stats, partials []bool, tr *SearchTrace) ([][]Result, error) {
	if !opts.Approx {
		return v.chainBatch(queries, k, lambda, workers, opts, st, partials, tr), nil
	}
	n := v.n()

	perShard := make([][][]Result, n)
	errs := make([]error, n)
	var per []Stats
	if st != nil || tr != nil {
		per = make([]Stats, n)
	}
	// Concurrent pools each write their own cut flags: a query's merged
	// answer is partial when any snapshot cut it short.
	var cuts [][]bool
	if n > 1 && partials != nil {
		cuts = make([][]bool, n)
	}
	run := func(i int, snap *Index) {
		var pst *Stats
		if per != nil {
			pst = &per[i]
		}
		cut := partials
		if cuts != nil {
			cut = make([]bool, len(queries))
			cuts[i] = cut
		}
		t0 := time.Now()
		perShard[i], errs[i] = snap.core.SearchBatch(queries, k, lambda, workers, opts, pst, cut)
		if tr != nil {
			tr.Shards[i].Stats.Stats = per[i]
			tr.Shards[i].DurationNanos = time.Since(t0).Nanoseconds()
		}
	}
	v.each(run)
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	if tr == nil {
		gatherStats(st, per)
	}
	if n == 1 {
		return perShard[0], nil
	}
	for _, c := range cuts {
		for qi, cut := range c {
			if cut {
				partials[qi] = true
			}
		}
	}
	g := time.Now()
	out := make([][]Result, len(queries))
	lists := make([][]Result, n)
	for qi := range queries {
		for si := range perShard {
			lists[si] = perShard[si][qi]
		}
		out[qi] = knn.MergeSorted(make([]Result, 0, k), lists, k)
	}
	if tr != nil {
		tr.Parallel = v.stripes > 1
		tr.GatherNanos += time.Since(g).Nanoseconds()
	}
	return out, nil
}

// chainBatch is executeBatch's exact arm: every worker draws queries
// from a shared cursor and answers each with one chain through all the
// snapshots (see chain), so a query's bound from shards 0..i-1 prunes
// shard i and a partitioned batch costs the same object-level work as a
// flat one. The pool is the facade's rather than core.SearchBatch's
// because a chain crosses core indexes. Like that one it never runs more
// workers than the scheduler has processors (workers <= 0 selects that
// many); worker 0 is the caller's goroutine. A snapshot's span sums the
// work counters over the batch and times the worker that spent longest
// in it.
func (v *view) chainBatch(queries []Object, k int, lambda float64, workers int, opts core.SearchOptions, st *Stats, partials []bool, tr *SearchTrace) [][]Result {
	if maxW := runtime.GOMAXPROCS(0); workers <= 0 || workers > maxW {
		workers = maxW
	}
	if workers > len(queries) {
		workers = len(queries)
	}
	hv, n := *v, v.n() // a copy for the workers, see mergeChains
	out := make([][]Result, len(queries))
	var per []Stats
	var spans []SearchSpan // n private spans per worker, folded into tr below
	if tr != nil {
		spans = make([]SearchSpan, workers*n)
	} else if st != nil {
		per = make([]Stats, workers)
	}
	var next atomic.Int64
	fanOut(workers, func(w int) {
		var pst *Stats
		if per != nil {
			pst = &per[w]
		}
		var mine []SearchSpan
		if spans != nil {
			mine = spans[w*n : (w+1)*n]
		}
		for {
			qi := int(next.Add(1)) - 1
			if qi >= len(queries) {
				return
			}
			var cut bool
			out[qi], cut = hv.chain(nil, 0, 1, &queries[qi], k, lambda, opts, pst, mine)
			if cut {
				partials[qi] = true
			}
		}
	})
	gatherStats(st, per)
	for j := range spans {
		sp := &tr.Shards[j%n]
		sp.Stats.Stats.Add(&spans[j].Stats.Stats)
		sp.DurationNanos = max(sp.DurationNanos, spans[j].DurationNanos)
	}
	if tr != nil {
		tr.Parallel = workers > 1
	}
	return out
}

// scatter runs fn once per pinned snapshot and returns after all
// finish. fn must confine itself to its snapshot index's slots in any
// shared output slices.
//
// Fan-out is capped at the scheduler's processor count: spawning P
// goroutines on fewer than P processors buys no parallelism but
// multiplies the call's scheduler share P-fold, starving concurrent
// writers, and pays P goroutine launches per call. Below the cap,
// snapshots are striped over scatterDegree(P) goroutines, the caller's
// among them; with one processor the whole scatter runs inline. Results
// are identical either way — fn writes only to its own slot, and the
// gather step orders by (distance, ID) regardless of completion order.
func scatter(snaps []*Index, fn func(i int, snap *Index)) {
	w := scatterDegree(len(snaps))
	fanOut(w, func(g int) {
		for i := g; i < len(snaps); i += w {
			fn(i, snaps[i])
		}
	})
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

// scatterDegree is the stripe count of a read over p snapshots — the
// number of goroutines it is dealt onto: min(p, GOMAXPROCS), at least 1.
// GOMAXPROCS rather than the machine's CPU count: a process confined to
// one scheduler thread gains nothing from goroutines, and should chain.
func scatterDegree(p int) int {
	if w := runtime.GOMAXPROCS(0); w < p {
		p = w
	}
	if p < 1 {
		p = 1
	}
	return p
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

// cacheKey builds a query's cache key. A knob that provably does not
// affect the answer in the request's mode is canonicalized so
// equivalent requests share an entry (RouteTarget outside routed-approx,
// and its documented default).
func cacheKey(q *Object, k int, lambda float64, approx, route bool, routeTarget float64, keywords []string) rescache.Key {
	key := rescache.Key{
		Hash:   rescache.HashQuery(q.X, q.Y, q.Vec),
		K:      k,
		Lambda: lambda,
		Approx: approx,
		Route:  route,
	}
	if approx && route {
		switch {
		case routeTarget <= 0:
			key.RouteTarget = DefaultRouteTarget
		case routeTarget > 1:
			key.RouteTarget = 1
		default:
			key.RouteTarget = routeTarget
		}
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
