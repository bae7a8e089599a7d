package main

import (
	"bytes"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"

	cssi "repro"
	"repro/internal/core"
	"repro/internal/metric"
	"repro/internal/obs"
	"repro/internal/pca"
	"repro/internal/vec"
)

// searcher is the request entry point all three index flavors share.
type searcher interface {
	Do(cssi.SearchRequest) ([]cssi.Result, error)
}

// ladder is the same corpus indexed once and reachable through every
// layer, from the bare core index out to a loopback socket. It is built
// apart from the workload's own target so that the workload's writes
// never reach it and every workload climbs identical rungs.
type ladder struct {
	core    *core.Index
	idx     *cssi.Index
	conc    *cssi.ConcurrentIndex
	web     *httpTarget // web.sh is ShardedFrom(idx); no result cache
	timings []core.BuildTimings
}

// coreBuilds is how many core.BuildTimed runs the build-phase medians
// are taken over.
const coreBuilds = 3

func newLadder(d *data, builds int) (*ladder, error) {
	l := &ladder{}
	for i := 0; i < builds; i++ {
		l.core = nil
		runtime.GC()
		space, err := metric.NewSpace(d.corpus)
		if err != nil {
			return nil, err
		}
		// The configuration cssi.Options{Seed: buildSeed} resolves to.
		c, tm, err := core.BuildTimed(d.corpus, space, core.Config{PCAMethod: pca.Randomized, Seed: buildSeed})
		if err != nil {
			return nil, fmt.Errorf("core build: %w", err)
		}
		l.core, l.timings = c, append(l.timings, tm)
	}
	var err error
	if l.idx, err = cssi.Build(d.corpus, cssi.Options{Seed: buildSeed}); err != nil {
		return nil, err
	}
	l.conc = cssi.Concurrent(l.idx)
	if l.web, err = serve(l.idx, d, 1, false); err != nil {
		return nil, err
	}
	return l, nil
}

// memWriter is the in-memory http.ResponseWriter of the handler rung.
type memWriter struct {
	h      http.Header
	body   bytes.Buffer
	status int
}

func (w *memWriter) Header() http.Header         { return w.h }
func (w *memWriter) Write(b []byte) (int, error) { return w.body.Write(b) }
func (w *memWriter) WriteHeader(status int)      { w.status = status }

// rung is one layer's way of answering a query, uncached.
type rung struct {
	name string
	ask  func(q *cssi.Object, body []byte) error
}

func (l *ladder) rungs() []rung {
	var dst []cssi.Result
	req := func(q *cssi.Object) cssi.SearchRequest {
		return cssi.SearchRequest{Query: q, K: topK, Lambda: lambda, Dst: dst[:0], Cache: cssi.CacheOff}
	}
	do := func(s searcher) func(*cssi.Object, []byte) error {
		return func(q *cssi.Object, _ []byte) (err error) {
			dst, err = s.Do(req(q))
			return err
		}
	}
	mw := &memWriter{h: http.Header{}}
	var buf bytes.Buffer
	return []rung{
		{"core.SearchOptionsInto", func(q *cssi.Object, _ []byte) error {
			dst = l.core.SearchOptionsInto(dst[:0], q, topK, lambda, core.SearchOptions{}, nil)
			return nil
		}},
		{"Index.Do", do(l.idx)},
		{"ConcurrentIndex.Do", do(l.conc)},
		{"ShardedFrom(idx).Do", do(l.web.sh)},
		{"Handler().ServeHTTP", func(_ *cssi.Object, body []byte) error {
			r, err := http.NewRequest(http.MethodPost, "/v1/search", bytes.NewReader(body))
			if err != nil {
				return err
			}
			clear(mw.h)
			mw.body.Reset()
			mw.status = http.StatusOK
			l.web.handler.ServeHTTP(mw, r)
			if mw.status != http.StatusOK {
				return fmt.Errorf("handler status %d: %.120s", mw.status, mw.body.Bytes())
			}
			return nil
		}},
		{"loopback POST", func(_ *cssi.Object, body []byte) error {
			return l.web.post(l.web.clients[0], body, "", &buf)
		}},
	}
}

// climb times every rung on every query, twice, and returns each rung's
// µs with lat[r][k] and lat[r+1][k] timing the same query moments apart
// — which is what lets the caller price a layer as the median of
// per-query differences, a few microseconds under a millisecond of
// search, on a host whose speed wanders by tens of percent.
//
// It climbs in two legs because the bare core index is a separate,
// identically built index in its own memory, while the five rungs above
// it share the facade's. Asked all six in a row, the shared index is
// touched five times as often and stays in cache while the core's is
// evicted: the core rung then reads 100-400 µs slower than the facade
// above it, whichever order the asks take and whether or not the
// private cache is flushed or warmed first (all measured). So the first
// leg asks only the core rung and Index.Do, by turns, one touch each;
// the second asks the five rungs that share an index, after one untimed
// ask that puts them all on the same warm footing, starting from a
// different rung each query (asked first, a rung read 18 µs slower than
// an identical rung asked second). lat[1] holds the first leg's Index.Do; the second
// leg's is returned as idx2 and pairs with lat[2].
func (l *ladder) climb(queries []cssi.Object, fail func(string, ...any)) (lat [][]float64, idx2 []float64, reqBytes, respBytes float64) {
	rungs := l.rungs()
	lat = make([][]float64, len(rungs))
	timed := func(ri, i int, body []byte) float64 {
		t0 := time.Now()
		err := rungs[ri].ask(&queries[i], body)
		d := micros(time.Since(t0))
		if err != nil {
			fail("ladder rung %s query %d: %v", rungs[ri].name, i, err)
		}
		return d
	}
	for pass := 0; pass < 2; pass++ {
		for i := range queries {
			if (i+pass)%2 == 0 {
				lat[0] = append(lat[0], timed(0, i, nil))
				lat[1] = append(lat[1], timed(1, i, nil))
			} else {
				lat[1] = append(lat[1], timed(1, i, nil))
				lat[0] = append(lat[0], timed(0, i, nil))
			}
		}
	}
	var buf bytes.Buffer
	for pass := 0; pass < 2; pass++ {
		for i := range queries {
			body := encodeSearch(&queries[i], "off")
			if pass == 0 {
				reqBytes += float64(len(body))
				if err := l.web.post(l.web.clients[0], body, "", &buf); err == nil {
					respBytes += float64(buf.Len())
				}
			}
			_ = rungs[1].ask(&queries[i], nil) // the untimed ask; a failure shows on the timed one
			// Start on a different rung each query and go round in
			// alternating directions, so that over the queries every
			// rung is asked first, last and in between equally often.
			var row [6]float64
			upper := len(rungs) - 1
			for k := 0; k < upper; k++ {
				off := (i + k) % upper
				if (i/upper+pass)%2 == 1 {
					off = ((i-k)%upper + upper) % upper
				}
				row[1+off] = timed(1+off, i, body)
			}
			idx2 = append(idx2, row[1])
			for ri := 2; ri < len(rungs); ri++ {
				lat[ri] = append(lat[ri], row[ri])
			}
		}
	}
	n := float64(len(queries))
	return lat, idx2, reqBytes / n, respBytes / n
}

// step is the median of the per-query differences upper − lower.
func step(upper, lower []float64) float64 {
	d := make([]float64, len(upper))
	for k := range d {
		d[k] = upper[k] - lower[k]
	}
	return median(d)
}

// explainPass runs the queries through s with Explain on and returns the
// summed trace.
func explainPass(s searcher, queries []cssi.Object, approx bool) (obs.SearchStats, error) {
	var es obs.SearchStats
	var dst []cssi.Result
	for i := range queries {
		var err error
		dst, err = s.Do(cssi.SearchRequest{Query: &queries[i], K: topK, Lambda: lambda, Approx: approx,
			Dst: dst[:0], Explain: &es, Cache: cssi.CacheOff})
		if err != nil {
			return es, err
		}
	}
	return es, nil
}

// coreExplainPass is explainPass against the bare core index.
func coreExplainPass(c *core.Index, queries []cssi.Object, approx bool) obs.SearchStats {
	var es obs.SearchStats
	var dst []cssi.Result
	for i := range queries {
		dst = c.SearchExplainOptionsInto(dst[:0], &queries[i], topK, lambda, core.SearchOptions{Approx: approx}, &es)
	}
	return es
}

// timeCore returns the per-query µs of core searches with the given k,
// λ and options.
func timeCore(c *core.Index, queries []cssi.Object, k int, lam float64, opts core.SearchOptions) []float64 {
	lat := make([]float64, len(queries))
	var dst []cssi.Result
	for i := range queries {
		t0 := time.Now()
		dst = c.SearchOptionsInto(dst[:0], &queries[i], k, lam, opts, nil)
		lat[i] = micros(time.Since(t0))
	}
	return lat
}

// timeDo returns the per-query µs of s.Do, uncached.
func timeDo(s searcher, queries []cssi.Object) ([]float64, error) {
	lat := make([]float64, len(queries))
	var dst []cssi.Result
	for i := range queries {
		t0 := time.Now()
		var err error
		dst, err = s.Do(cssi.SearchRequest{Query: &queries[i], K: topK, Lambda: lambda, Dst: dst[:0], Cache: cssi.CacheOff})
		lat[i] = micros(time.Since(t0))
		if err != nil {
			return nil, err
		}
	}
	return lat, nil
}

// kernelProbe times the float32 and SQ8-LUT block kernels over one
// contiguous block of corpus vectors and returns ns per row for each.
func kernelProbe(d *data, rows int) (f32, sq8 float64) {
	if rows > d.corpus.Len() {
		rows = d.corpus.Len()
	}
	block := make([]float32, 0, rows*dim)
	for i := 0; i < rows; i++ {
		block = append(block, d.corpus.Objects[i].Vec...)
	}
	q := d.pool[0].Vec
	out := make([]float64, rows)
	cb := vec.TrainSQ8(block, dim)
	codes := make([]uint8, rows*dim)
	for i := 0; i < rows; i++ {
		cb.EncodeInto(codes[i*dim:(i+1)*dim], block[i*dim:(i+1)*dim])
	}
	qa := make([]float32, dim)
	cb.AdjustQueryInto(qa, q)
	var lut vec.SQ8LUT
	const reps = 15
	var tf, tq []float64
	for rep := 0; rep < reps; rep++ { // interleaved so both see the same drift
		t0 := time.Now()
		vec.SqDistBlockInto(out, q, block)
		tf = append(tf, float64(time.Since(t0).Nanoseconds())/float64(rows))
		t0 = time.Now()
		lut = cb.BuildSQ8LUTInto(lut, qa)
		vec.SqDistSQ8LUTBlockInto(out, lut, codes)
		tq = append(tq, float64(time.Since(t0).Nanoseconds())/float64(rows))
	}
	return median(tf), median(tq)
}

// compactionLog collects overlay compaction durations from the
// observer hook (called from background goroutines).
type compactionLog struct {
	mu sync.Mutex
	ms []float64
}

func (c *compactionLog) observe(d time.Duration) {
	c.mu.Lock()
	c.ms = append(c.ms, float64(d.Nanoseconds())/1e6)
	c.mu.Unlock()
}

func (c *compactionLog) snapshot() []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]float64(nil), c.ms...)
}

// sharded returns the ShardedIndex the workload serves from, if any.
func (r *run) sharded() *cssi.ShardedIndex {
	switch t := r.t.(type) {
	case *httpTarget:
		return t.sh
	case *shardedTarget:
		return t.sh
	}
	return nil
}

// facade returns the in-process index the workload serves from.
func (r *run) facade() searcher {
	if sh := r.sharded(); sh != nil {
		return sh
	}
	return r.t.(*flatTarget).idx
}

// layerProbe is the traced run's state across the phases.
type layerProbe struct {
	lad         *ladder
	compactions compactionLog
	exact       obs.SearchStats // count pass on the workload's facade
	flat        obs.SearchStats // same queries on the ladder's core index
	approx      obs.SearchStats // approximate twin on the ladder's core index
}

// beforeRounds builds the ladder and takes the deterministic counts,
// while the workload's index is still exactly as set-up left it.
func (r *run) beforeRounds() (*layerProbe, error) {
	lp := &layerProbe{}
	var err error
	if lp.lad, err = newLadder(r.d, coreBuilds); err != nil {
		return nil, err
	}
	if sh := r.sharded(); sh != nil {
		// Replaces the observer server.NewSharded installed for /metrics;
		// only the traced run does this.
		sh.SetCompactionObserver(lp.compactions.observe)
	}
	queries := r.d.pool[:r.sz.count]
	if lp.exact, err = explainPass(r.facade(), queries, false); err != nil {
		return nil, fmt.Errorf("count pass: %w", err)
	}
	lp.flat = coreExplainPass(lp.lad.core, queries, false)
	lp.approx = coreExplainPass(lp.lad.core, queries[:r.sz.ladder], true)
	viaFacade, err := explainPass(lp.lad.idx, queries, false)
	if err != nil {
		return nil, fmt.Errorf("count pass: %w", err)
	}
	r.attempted++
	if viaFacade.VisitedObjects != lp.flat.VisitedObjects {
		r.fail("Index.Do visited %d objects over the count queries, the core index %d: the two are not built alike",
			viaFacade.VisitedObjects, lp.flat.VisitedObjects)
	}
	return lp, nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// layerMetrics climbs the ladder, runs the remaining probes and turns
// everything the traced run saw into the per-layer metrics.
func (r *run) layerMetrics(lp *layerProbe, main *phase) ([]metric1, error) {
	var out metricList
	add := out.add
	l := lp.lad
	lq := r.d.pool[:r.sz.ladder]
	nq := float64(r.sz.count)

	add("ref.scan_us", percentile(main.scans, lowQ), "us", len(main.scans))
	add("ref.scan_cv", cv(main.roundScan), "ratio", len(main.roundScan))

	f32, sq8 := kernelProbe(r.d, r.sz.kernel)
	add("vec.sqdist_block_ns_per_row", f32, "ns", r.sz.kernel)
	add("vec.sq8_lut_block_ns_per_row", sq8, "ns", r.sz.kernel)
	add("vec.sq8_kernel_speedup", f32/sq8, "ratio", r.sz.kernel)

	// The ladder: the bottom rung's median, then each layer's cost as the
	// median per-query difference between its rung and the rung below.
	// Every rung's own figure is the sum up to it, so the rows add up to
	// the top rung by construction.
	lat, idx2, reqB, respB := l.climb(lq, r.fail)
	n := len(lat[0])
	r.attempted += 7 * n
	rung := make([]float64, len(lat)) // cumulative
	rung[0] = percentile(lat[0], 0.5)
	for i := 1; i < len(lat); i++ {
		below := lat[i-1]
		if i == 2 {
			below = idx2
		}
		rung[i] = rung[i-1] + step(lat[i], below)
	}
	add("core.search_p50_us", rung[0], "us", n)
	add("facade.do_p50_us", rung[1], "us", n)
	add("facade.do_overhead_us", rung[1]-rung[0], "us", n)
	add("concurrent.do_overhead_us", rung[2]-rung[1], "us", n)
	add("sharded.wrapper_overhead_us", rung[3]-rung[2], "us", n)
	add("server.handler_p50_us", rung[4], "us", n)
	add("server.codec_admission_us", rung[4]-rung[3], "us", n)
	add("server.net_us", rung[5]-rung[4], "us", n)
	add("ladder.top_p50_us", rung[5], "us", n)
	add("server.request_bytes", reqB, "B", len(lq))
	add("server.response_bytes", respB, "B", len(lq))

	// Client-observed round trips: the workload's own when it speaks
	// HTTP, the ladder's top rung otherwise.
	rt := lat[5] // timed on a warm cache, see climb
	if r.sp.shape == httpShape {
		rt = main.stats(nil).perQuery
	}
	add("server.roundtrip_p50_us", percentile(rt, 0.5), "us", len(rt))
	add("server.roundtrip_p99_us", percentile(rt, 0.99), "us", len(rt))
	add("server.roundtrip_p999_us", percentile(rt, 0.999), "us", len(rt))
	served := len(main.rounds) * len(main.rounds[0].reads)
	add("server.shed_ratio", float64(r.shed.Load())/float64(served), "ratio", served)

	// Search phases and counts on the workload's own facade.
	phases, err := explainPass(r.facade(), lq, false)
	if err != nil {
		return nil, fmt.Errorf("phase pass: %w", err)
	}
	nl := float64(len(lq))
	add("core.order_us", float64(phases.OrderNanos)/nl/1e3, "us", len(lq))
	add("core.scan_us", float64(phases.ScanNanos)/nl/1e3, "us", len(lq))
	add("core.quant_us", float64(phases.QuantNanos)/nl/1e3, "us", len(lq))
	add("core.delta_us", float64(phases.DeltaNanos)/nl/1e3, "us", len(lq))
	e := &lp.exact
	add("core.visited_per_query", float64(e.VisitedObjects)/nq, "count", r.sz.count)
	add("core.sem_dist_calcs_per_query", float64(e.SemanticDistCalcs)/nq, "count", r.sz.count)
	add("core.clusters_examined_per_query", float64(e.ClustersExamined)/nq, "count", r.sz.count)
	add("core.clusters_ordered_per_query", float64(e.ClustersOrdered)/nq, "count", r.sz.count)
	add("core.clusters_pruned_ratio", e.ClustersPrunedRatio(), "ratio", r.sz.count)
	add("core.inter_pruned_ratio", ratio(e.InterPruned, e.ObjectsConsidered()), "ratio", r.sz.count)
	add("core.intra_pruned_ratio", ratio(e.IntraPruned, e.ObjectsConsidered()), "ratio", r.sz.count)
	add("core.quant_rerank_ratio", ratio(e.QuantReranked, e.QuantReranked+e.QuantPruned), "ratio", r.sz.count)
	add("core.early_abandons_per_query", float64(e.EarlyAbandons)/nq, "count", r.sz.count)
	add("core.lambda01_p50_us", percentile(timeCore(l.core, lq, topK, 0.1, core.SearchOptions{}), 0.5), "us", len(lq))
	add("core.lambda09_p50_us", percentile(timeCore(l.core, lq, topK, 0.9, core.SearchOptions{}), 0.5), "us", len(lq))
	add("core.k50_p50_us", percentile(timeCore(l.core, lq, 50, lambda, core.SearchOptions{}), 0.5), "us", len(lq))
	add("core.approx_search_p50_us", percentile(timeCore(l.core, lq, topK, lambda, core.SearchOptions{Approx: true}), 0.5), "us", len(lq))
	// The SQ8 filter's end-to-end worth: the same exact search with the
	// quantized pass switched off, over the same search with it on,
	// alternating so both see the same host.
	var quantOn, quantOff []float64
	for rep := 0; rep < 2; rep++ {
		quantOn = append(quantOn, timeCore(l.core, lq, topK, lambda, core.SearchOptions{})...)
		quantOff = append(quantOff, timeCore(l.core, lq, topK, lambda, core.SearchOptions{Quant: core.QuantOff})...)
	}
	add("core.quantoff_p50_us", percentile(quantOff, 0.5), "us", len(quantOff))
	add("core.sq8_search_speedup", percentile(quantOff, 0.5)/percentile(quantOn, 0.5), "ratio", len(quantOff))
	add("core.approx_visited_per_query", float64(lp.approx.VisitedObjects)/nl, "count", len(lq))

	var sp, pc, se, hy, ro []float64
	for _, tm := range l.timings {
		sp = append(sp, tm.Spatial.Seconds())
		pc = append(pc, tm.PCA.Seconds())
		se = append(se, tm.Semantic.Seconds())
		hy = append(hy, tm.Hybrid.Seconds())
		ro = append(ro, tm.Route.Seconds())
	}
	add("core.build_spatial_s", median(sp), "s", len(sp))
	add("core.build_pca_s", median(pc), "s", len(pc))
	add("core.build_semantic_s", median(se), "s", len(se))
	add("core.build_hybrid_s", median(hy), "s", len(hy))
	add("core.build_route_s", median(ro), "s", len(ro))

	// Facade: allocations, and how much of both cores DoBatch uses.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m0 := ms.Mallocs
	if _, err := timeDo(l.idx, lq); err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms)
	add("facade.allocs_per_query", float64(ms.Mallocs-m0)/nl, "count", len(lq))
	batch := cssi.BatchSearchRequest{Queries: lq, K: topK, Lambda: lambda, Approx: r.sp.approx}
	wall := func(workers int) (float64, error) {
		batch.Parallelism = workers
		var best []float64
		for rep := 0; rep < 3; rep++ {
			t0 := time.Now()
			if _, err := l.idx.DoBatch(batch); err != nil {
				return 0, err
			}
			best = append(best, micros(time.Since(t0)))
		}
		return median(best), nil
	}
	serial, err := wall(1)
	if err != nil {
		return nil, err
	}
	parallel, err := wall(nproc())
	if err != nil {
		return nil, err
	}
	add("facade.batch_parallel_efficiency", serial/(float64(nproc())*parallel), "ratio", 3)

	// Always-on trace sink, as the server installs it: Do with ÷ without,
	// alternating so both halves see the same host.
	var with, without []float64
	for rep := 0; rep < 2; rep++ {
		a, err := timeDo(l.idx, lq)
		if err != nil {
			return nil, err
		}
		l.idx.SetTraceSink(obs.NewSink(obs.SinkConfig{}))
		b, err := timeDo(l.idx, lq)
		l.idx.SetTraceSink(nil)
		if err != nil {
			return nil, err
		}
		without, with = append(without, a...), append(with, b...)
	}
	add("obs.sink_overhead_ratio", percentile(with, 0.5)/percentile(without, 0.5), "ratio", len(with))

	// Result cache: counts are the workload's own (zero when it serves
	// without one); hit cost and miss penalty come from a probe on the
	// ladder so every workload reports them.
	var hits, misses, evict, inval []float64
	for _, rr := range main.rounds {
		hits = append(hits, float64(rr.cache.Hits))
		misses = append(misses, float64(rr.cache.Misses))
		evict = append(evict, float64(rr.cache.Evictions))
		inval = append(inval, float64(rr.cache.Invalidations))
	}
	h, m := median(hits), median(misses)
	hitRatio := 0.0
	if h+m > 0 {
		hitRatio = h / (h + m)
	}
	add("rescache.hit_ratio", hitRatio, "ratio", len(hits))
	add("rescache.hits", h, "count", len(hits))
	add("rescache.misses", m, "count", len(hits))
	add("rescache.evictions", median(evict), "count", len(hits))
	add("rescache.invalidations", median(inval), "count", len(hits))
	l.conc.EnableResultCache(cacheEntries)
	var hitLat, missLat []float64
	var dst []cssi.Result
	for pass := 0; pass < 4; pass++ {
		for i := range lq {
			t0 := time.Now()
			dst, err = l.conc.Do(cssi.SearchRequest{Query: &lq[i], K: topK, Lambda: lambda, Dst: dst[:0]})
			d := micros(time.Since(t0))
			if err != nil {
				return nil, err
			}
			if pass == 0 {
				missLat = append(missLat, d)
			} else {
				hitLat = append(hitLat, d)
			}
		}
	}
	l.conc.DisableResultCache()
	add("rescache.hit_p50_us", percentile(hitLat, 0.5), "us", len(hitLat))
	add("rescache.miss_penalty_us", percentile(missLat, 0.5)-percentile(hitLat, 0.5), "us", len(missLat))

	// Sharded layer: the workload's own ShardedIndex, or the ladder's
	// one-shard wrapper when the workload serves from a flat index.
	sh := r.sharded()
	if sh == nil {
		sh = l.web.sh
	}
	shLat, err := timeDo(sh, lq)
	if err != nil {
		return nil, err
	}
	add("sharded.do_p50_us", percentile(shLat, 0.5), "us", len(shLat))
	add("sharded.do_p99_us", percentile(shLat, 0.99), "us", len(shLat))
	var gather, imbalance []float64
	var tr cssi.SearchTrace
	for i := range lq {
		if dst, err = sh.Do(cssi.SearchRequest{Query: &lq[i], K: topK, Lambda: lambda, Dst: dst[:0], Trace: &tr, Cache: cssi.CacheOff}); err != nil {
			return nil, err
		}
		gather = append(gather, float64(tr.GatherNanos)/1e3)
		var sum, max float64
		for _, s := range tr.Shards {
			d := float64(s.DurationNanos)
			sum += d
			if d > max {
				max = d
			}
		}
		if sum > 0 {
			imbalance = append(imbalance, max*float64(len(tr.Shards))/sum)
		}
	}
	add("sharded.gather_us", mean(gather), "us", len(gather))
	add("sharded.shard_imbalance_ratio", mean(imbalance), "ratio", len(imbalance))
	add("sharded.read_amplification", ratio(e.VisitedObjects, lp.flat.VisitedObjects), "ratio", r.sz.count)

	// Persistence, in memory: what set-up would cost from a saved image.
	var img bytes.Buffer
	t0 := time.Now()
	if err := l.idx.Save(&img); err != nil {
		return nil, fmt.Errorf("save: %w", err)
	}
	add("persist.save_s", time.Since(t0).Seconds(), "s", 1)
	size := img.Len()
	t0 = time.Now()
	if _, err := cssi.LoadIndex(&img); err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	add("persist.load_s", time.Since(t0).Seconds(), "s", 1)
	add("persist.bytes_per_object", float64(size)/float64(r.sp.n), "B", 1)

	add("proc.gc_cycles", float64(main.gcCycles), "count", len(main.rounds))
	add("proc.gc_pause_total_ms", main.gcPauseMs, "ms", len(main.rounds))
	add("proc.heap_peak_mb", main.heapPeakMB, "MB", len(main.rounds))

	on := main.stats(func(i int) bool { return main.traced[i] })
	off := main.stats(func(i int) bool { return !main.traced[i] })
	add("trace.overhead_ratio", on.p50/off.p50, "ratio", len(main.traced))
	return out, nil
}

// writeMetrics reports the write path from the rounds that interleave
// writes with reads.
func (r *run) writeMetrics(lp *layerProbe, rw *phase) []metric1 {
	var out metricList
	add := out.add
	comp := lp.compactions.snapshot()
	w := rw.stats(nil)
	add("write.apply_p50_us", w.w50, "us", w.writes*w.rounds)
	add("write.apply_p99_us", w.w99, "us", w.writes*w.rounds)
	add("write.compactions", float64(len(comp)), "count", len(comp))
	add("write.compaction_p50_ms", percentile(comp, 0.5), "ms", len(comp))
	add("write.compaction_max_ms", percentile(comp, 1), "ms", len(comp))
	add("write.delta_ops_peak", float64(r.deltaPeak), "count", len(rw.rounds))
	add("write.read_p99_us", w.p99, "us", w.reads*w.rounds)
	return out
}
