package main

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	cssi "repro"
)

// run is one benchmark process: one workload, one seed.
type run struct {
	sp  spec
	sz  sizes
	d   *data
	or  *oracle
	t   target
	rec *spanRec // nil in the untraced run
	wr  writer

	reqStats cssi.Stats // scratch of beginRequest/endRequest

	vi      int       // cursor into d.verify
	recalls []float64 // latest recall per verify query, -1 = not yet asked

	// httpShape only: the run's request plan (pool index per request),
	// the current round's encoded requests, and the hot ones' encodings.
	plan      []int
	bodies    [][]byte
	hotBodies [][]byte
	coldSeq   int // serial that keeps cold HTTP queries distinct

	deltaPeak int          // most overlay ops seen buffered across the shards at a round's end
	shed      atomic.Int64 // requests the admission gate refused (429)

	mu        sync.Mutex // guards the failure accounting below
	attempted int
	failed    int
	failures  []string // the first few, for the report
}

// fail counts one failed operation.
func (r *run) fail(format string, args ...any) {
	r.mu.Lock()
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
	r.mu.Unlock()
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// scans runs n oracle scans back to back and returns each one's wall
// time in µs. The scanned queries are then put to the workload (untimed)
// and compared with the scan's answer, so the time gauge is also the
// correctness oracle.
func (r *run) scans(n int) []float64 {
	times := make([]float64, n)
	wants := make([][]cssi.Result, n)
	first := r.vi
	for i := range times {
		q := &r.d.verify[(first+i)%len(r.d.verify)]
		t0 := time.Now()
		wants[i] = r.or.knn(make([]cssi.Result, 0, topK), q, topK, lambda)
		times[i] = micros(time.Since(t0))
	}
	r.vi += n
	var got []cssi.Result
	for i, want := range wants {
		vi := (first + i) % len(r.d.verify)
		q := &r.d.verify[vi]
		var err error
		got, err = r.t.search(q, got, nil)
		r.attempted++
		switch {
		case err != nil:
			r.fail("verify query %d: %v", vi, err)
			r.recalls[vi] = 0
		case r.sp.approx:
			r.recalls[vi] = r.or.recall(q, lambda, got, want)
		default:
			r.recalls[vi] = 1
			if err := r.or.checkExact(q, lambda, got, want); err != nil {
				r.fail("verify query %d: %v", vi, err)
				r.recalls[vi] = r.or.recall(q, lambda, got, want)
			}
		}
	}
	return times
}

// recall is the mean over the verify queries asked so far.
func (r *run) recall() (float64, int) {
	var sum float64
	n := 0
	for _, v := range r.recalls {
		if v >= 0 {
			sum += v
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return sum / float64(n), n
}

// roundResult is what one round's client(s) observed. reads and writes
// are in issue order, which is the same in every round of a phase.
type roundResult struct {
	walls  []float64 // µs spent inside each slice, scans excluded
	ops    int       // operations completed
	reads  []float64 // µs per query, as the caller saw it
	writes []float64 // µs per mutation
	cache  cssi.CacheStats
}

// phase is everything one measured phase observed.
type phase struct {
	rounds                       []roundResult
	traced                       []bool    // per round: was span recording on
	scans                        []float64 // every oracle scan of the phase, µs
	roundScan                    []float64 // per round, the median of the scans interleaved with it
	gcCycles                     uint32
	gcPauseMs, heapPeakMB, wallS float64
}

// measure runs rounds of `units` units each: `fixed` rounds when
// positive, otherwise as many as fit in budget but at least
// sz.minRounds. Every round issues the same operations in the same
// order. Each round is cut into sz.slices slices with sz.scansPerGap
// oracle scans before, between and after them, so the scans sample the
// host over the very interval the operations ran in. In a traced run odd
// rounds have span recording off.
func (r *run) measure(budget time.Duration, fixed, units int, fn sliceFn) *phase {
	p := &phase{}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc0, pause0 := ms.NumGC, ms.PauseTotalNs
	start := time.Now()
	p.scans = r.scans(r.sz.scansPerGap)
	for i := 0; ; i++ {
		if fixed > 0 && i >= fixed {
			break
		}
		if fixed == 0 && i >= r.sz.minRounds && time.Since(start) >= budget {
			break
		}
		on := r.rec != nil && i%2 == 0
		var res roundResult
		first := len(p.scans)
		for c := 0; c < r.sz.slices; c++ {
			r.rec.record(on)
			t0 := time.Now()
			fn(i, units*c/r.sz.slices, units*(c+1)/r.sz.slices, &res)
			res.walls = append(res.walls, micros(time.Since(t0)))
			r.rec.record(false)
			p.scans = append(p.scans, r.scans(r.sz.scansPerGap)...)
		}
		p.traced = append(p.traced, on)
		p.rounds = append(p.rounds, res)
		p.roundScan = append(p.roundScan, median(p.scans[first:]))
		runtime.ReadMemStats(&ms)
		if mb := float64(ms.HeapAlloc) / (1 << 20); mb > p.heapPeakMB {
			p.heapPeakMB = mb
		}
	}
	p.wallS = time.Since(start).Seconds()
	p.gcCycles = ms.NumGC - gc0
	p.gcPauseMs = float64(ms.PauseTotalNs-pause0) / 1e6
	return p
}

// sliceFn runs units [lo, hi) of round i, adding what it observed to res.
type sliceFn func(i, lo, hi int, res *roundResult)

// lowQ is the quantile that stands for "the host left this alone".
// Interference from neighbours on a shared host only ever adds time, in
// episodes that cover some rounds and not others, so across the rounds'
// repeats of one operation a low quantile recovers its undisturbed cost
// where a median would need most rounds to be clean. The lower quartile,
// not the minimum, so that one lucky repeat does not set the figure.
const lowQ = 0.25

// summary is a phase boiled down: per operation the lowQ quantile over
// the selected rounds' repeats of it, then percentiles over operations.
type summary struct {
	ref      float64   // lowQ oracle scan, µs: the unit of the _rel figures
	p50, p99 float64   // over queries, µs
	perQuery []float64 // each query's lowQ latency, µs, in issue order
	w50, w99 float64   // over mutations, µs
	wall     float64   // Σ over slices of the slice's lowQ wall, µs
	ops      int       // operations per round
	rounds   int
	reads    int // queries per round
	writes   int // mutations per round
}

// stats summarises the rounds keep selects (all of them when keep is
// nil).
func (p *phase) stats(keep func(i int) bool) summary {
	var sel []roundResult
	for i, rr := range p.rounds {
		if keep == nil || keep(i) {
			sel = append(sel, rr)
		}
	}
	s := summary{ref: percentile(p.scans, lowQ), rounds: len(sel)}
	if len(sel) == 0 {
		return s
	}
	// across returns, for each position, the lowQ quantile over rounds.
	across := func(get func(roundResult) []float64) []float64 {
		n := len(get(sel[0]))
		out := make([]float64, n)
		col := make([]float64, len(sel))
		for j := 0; j < n; j++ {
			for k, rr := range sel {
				col[k] = get(rr)[j]
			}
			out[j] = percentile(col, lowQ)
		}
		return out
	}
	reads := across(func(rr roundResult) []float64 { return rr.reads })
	writes := across(func(rr roundResult) []float64 { return rr.writes })
	s.perQuery = reads
	s.p50, s.p99 = percentile(reads, 0.5), percentile(reads, 0.99)
	s.w50, s.w99 = percentile(writes, 0.5), percentile(writes, 0.99)
	for _, w := range across(func(rr roundResult) []float64 { return rr.walls }) {
		s.wall += w
	}
	s.ops, s.reads, s.writes = sel[0].ops, len(reads), len(writes)
	return s
}

// mainUnits is how many units one round of the workload's own traffic
// has, and mainSlice runs some of them.
func (r *run) mainUnits() int {
	if r.sp.shape == batchShape {
		return r.sp.reads / r.sp.batch
	}
	return r.sp.reads
}

func (r *run) mainSlice(i, lo, hi int, res *roundResult) {
	switch r.sp.shape {
	case batchShape:
		r.batchSlice(i, lo, hi, res)
	case httpShape:
		r.httpSlice(i, lo, hi, res)
	default:
		r.mixedSlice(i, lo, hi, r.sp.reads, r.sp.writes, res)
	}
}

// beginRequest opens an in-process request's span and, only while spans
// are being recorded, hands back the work counters to read at the same
// boundary; endRequest closes the span with the objects visited.
func (r *run) beginRequest(root int32) (int32, *cssi.Stats) {
	s := r.rec.begin("request", root, -1)
	if s < 0 {
		return s, nil
	}
	return s, &r.reqStats
}

func (r *run) endRequest(s int32, st *cssi.Stats) {
	if st != nil {
		r.rec.end(s, st.VisitedObjects)
		*st = cssi.Stats{}
	}
}

// mixedSlice is one closed-loop client issuing queries [lo, hi) of round
// i's `reads`, with the round's `writes` single-op mutations spread
// evenly between the reads. Every applied mutation is mirrored into the
// oracle outside the timed call.
func (r *run) mixedSlice(i, lo, hi, reads, writes int, res *roundResult) {
	var dst []cssi.Result
	root := r.rec.begin("slice", -1, -1)
	for j := lo; j < hi; j++ {
		s, st := r.beginRequest(root)
		t0 := time.Now()
		var err error
		dst, err = r.t.search(&r.d.pool[j], dst, st)
		res.reads = append(res.reads, micros(time.Since(t0)))
		r.endRequest(s, st)
		res.ops++
		if err != nil {
			r.fail("round %d query %d: %v", i, j, err)
		} else if len(dst) != topK {
			r.fail("round %d query %d: %d results, want %d", i, j, len(dst), topK)
		}
		// Spread the round's writes evenly: after read j, as many as bring
		// the running total to (j+1)·writes/reads.
		for due := (j+1)*writes/reads - j*writes/reads; due > 0; due-- {
			op := r.wr.op()
			s := r.rec.begin("write", root, -1)
			t0 := time.Now()
			err := r.t.write(op)
			res.writes = append(res.writes, micros(time.Since(t0)))
			r.rec.end(s, 1)
			res.ops++
			if err != nil {
				r.fail("round %d write after query %d: %v", i, j, err)
			} else {
				r.or.apply(op)
			}
		}
	}
	r.rec.end(root, int64(hi-lo))
	r.attempted += hi - lo + hi*writes/reads - lo*writes/reads
	if sh := r.sharded(); sh != nil && writes > 0 {
		buffered := 0
		for _, st := range sh.ShardStats() {
			buffered += st.DeltaOps
		}
		if buffered > r.deltaPeak {
			r.deltaPeak = buffered
		}
	}
}

// batchSlice issues batches [lo, hi) of the round as DoBatch calls of
// sp.batch queries on every core. A query's latency is its batch's wall
// time divided by the batch size.
func (r *run) batchSlice(i, lo, hi int, res *roundResult) {
	idx := r.t.(*flatTarget).idx
	root := r.rec.begin("slice", -1, -1)
	for b := lo; b < hi; b++ {
		s, st := r.beginRequest(root)
		t0 := time.Now()
		out, err := idx.DoBatch(cssi.BatchSearchRequest{
			Queries: r.d.pool[b*r.sp.batch : (b+1)*r.sp.batch], K: topK, Lambda: lambda,
			Approx: r.sp.approx, Parallelism: nproc(), Stats: st,
		})
		res.reads = append(res.reads, micros(time.Since(t0))/float64(r.sp.batch))
		r.endRequest(s, st)
		res.ops += r.sp.batch
		if err != nil {
			r.fail("round %d batch %d: %v", i, b, err)
			continue
		}
		for j := range out {
			if len(out[j]) != topK {
				r.fail("round %d batch %d query %d: %d results, want %d", i, b, j, len(out[j]), topK)
			}
		}
	}
	r.rec.end(root, int64(hi-lo))
	r.attempted += (hi - lo) * r.sp.batch
}

// httpBodies encodes a round's requests (untimed). The plan — which
// pool query each request carries — is drawn once per run: exactly
// hotShare of the requests repeat one of the hot queries and each of the
// rest carries its own cold query. Every round replays the plan, with
// each cold query made distinct from every earlier request by a
// sub-nanodegree nudge of its location, so a cold request costs the same
// search in every round yet never hits the cache.
func (r *run) httpBodies() {
	n := r.sp.reads
	if r.plan == nil {
		hot := int(hotShare * float64(n))
		r.plan = make([]int, n)
		for j := range r.plan {
			if j < hot {
				r.plan[j] = r.d.rng.IntN(r.sp.hot)
			} else {
				r.plan[j] = r.sp.hot + j - hot
			}
		}
		r.d.rng.Shuffle(n, func(a, b int) { r.plan[a], r.plan[b] = r.plan[b], r.plan[a] })
		for j := 0; j < r.sp.hot; j++ {
			r.hotBodies = append(r.hotBodies, encodeSearch(&r.d.pool[j], ""))
		}
		r.bodies = make([][]byte, n)
	}
	for j, pi := range r.plan {
		if pi < r.sp.hot {
			r.bodies[j] = r.hotBodies[pi]
			continue
		}
		q := r.d.pool[pi]
		r.coldSeq++
		q.X += float64(r.coldSeq) * 1e-10
		r.bodies[j] = encodeSearch(&q, "")
	}
}

// httpSlice splits requests [lo, hi) of the round over the keep-alive
// clients and checks afterwards that the cache served exactly the hot
// ones.
func (r *run) httpSlice(i, lo, hi int, res *roundResult) {
	t := r.t.(*httpTarget)
	if lo == 0 {
		r.httpBodies()
	}
	hot := 0
	for _, pi := range r.plan[lo:hi] {
		if pi < r.sp.hot {
			hot++
		}
	}
	lat := make([]float64, hi-lo)
	before, _ := t.sh.ResultCacheStats()
	root := r.rec.begin("slice", -1, -1)
	var wg sync.WaitGroup
	for c := range t.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var buf bytes.Buffer
			for j := lo + c; j < hi; j += len(t.clients) {
				s := r.rec.begin("request", root, -1)
				id := ""
				if s >= 0 {
					id = strconv.Itoa(int(s))
				}
				t0 := time.Now()
				err := t.post(t.clients[c], r.bodies[j], id, &buf)
				lat[j-lo] = micros(time.Since(t0))
				r.rec.end(s, int64(buf.Len()))
				if err != nil {
					r.fail("round %d request %d: %v", i, j, err)
					var se *statusError
					if errors.As(err, &se) && se.code == http.StatusTooManyRequests {
						r.shed.Add(1)
					}
				}
			}
		}(c)
	}
	wg.Wait()
	r.rec.end(root, int64(hi-lo))
	res.reads = append(res.reads, lat...)
	res.ops += hi - lo
	r.attempted += hi - lo
	after, _ := t.sh.ResultCacheStats()
	hits := after.Hits - before.Hits
	res.cache.Hits += hits
	res.cache.Misses += after.Misses - before.Misses
	res.cache.Evictions += after.Evictions - before.Evictions
	res.cache.Invalidations += after.Invalidations - before.Invalidations
	if hits != int64(hot) {
		r.fail("round %d requests %d-%d: %d cache hits, want %d (one per hot request)", i, lo, hi, hits, hot)
	}
}

// warmHot puts every hot query in the cache once, so that from the
// first round on a hot request is a hit.
func (r *run) warmHot() {
	var dst []cssi.Result
	for j := 0; j < r.sp.hot; j++ {
		var err error
		if dst, err = r.t.search(&r.d.pool[j], dst, nil); err != nil {
			r.fail("warming hot query %d: %v", j, err)
		}
	}
}

// setUps performs one discarded set-up (a cold heap pays first-touch
// page faults a warm one does not) and then `timed` measured ones,
// keeping the last as r.t. It returns each timed set-up's seconds and
// the heap the kept one retains: live heap after it minus live heap
// before the first.
func (r *run) setUps(timed int) (secs []float64, heapMB float64, err error) {
	live := func() float64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC() // a second cycle frees what finalizers and pools held through the first
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc) / (1 << 20)
	}
	base := live()
	for i := 0; i <= timed; i++ {
		if r.t != nil {
			if err := r.t.close(); err != nil {
				return nil, 0, err
			}
			r.t = nil
			runtime.GC()
		}
		t0 := time.Now()
		if r.t, err = setUp(r.sp, r.d); err != nil {
			return nil, 0, fmt.Errorf("set-up %d: %w", i, err)
		}
		if i > 0 {
			secs = append(secs, time.Since(t0).Seconds())
		}
	}
	return secs, live() - base, nil
}
