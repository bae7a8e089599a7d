package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	cssi "repro"
	"repro/internal/server"
)

func init() {
	register("serve", Serve)
}

// Serve measures the serving-under-load work end to end. Two tables:
//
//  1. Tail latency under closed-loop overload — the full HTTP stack
//     (router, admission gate, JSON codec, engine) driven by more
//     closed-loop workers than the host can serve, with a small
//     fraction of deliberately heavy (k=100) requests creating
//     head-of-line blocking. Measured unprotected (no deadline, no
//     admission control) and protected (per-request deadline at ~3x
//     the sequential median plus a bounded admission queue that sheds
//     the excess with 429). The acceptance shape: with protections on,
//     the p999 of the NON-SHED requests stays within ~5x their p50 —
//     the queue is bounded, so no request waits behind an unbounded
//     backlog — while the unprotected tail grows with the backlog.
//     Every shed response must carry Retry-After (checked in-run).
//  2. Result-cache effectiveness on a repeated-query mix — an 80/20
//     workload (80% of requests drawn from 20 hot queries) through
//     the snapshot-keyed result cache, with an in-run exactness
//     oracle: every cache hit is re-answered with Cache: CacheOff and
//     must match bit-for-bit (IDs and distances). The run fails —
//     not just reports — on an oracle mismatch or a hit ratio below
//     0.5, the acceptance floor for this workload.
//
// On a single-core host the closed-loop workers timeshare rather than
// truly overlap, so (as in the concurrency experiment) GOMAXPROCS is
// raised for the run to let the scheduler interleave requests the way
// a serving host would. Exactly two procs: one carries the executing
// handler, the other the clients and accept loop — more procs on one
// physical CPU just splinter the handler's timeslice (4 runnable
// threads on one core give the admitted request ~25% of it, inflating
// every measured latency ~4x with pure OS scheduling).
func Serve(s Setup) ([]Table, error) {
	s.applyDefaults()
	if prev := runtime.GOMAXPROCS(0); prev != 2 {
		runtime.GOMAXPROCS(2)
		defer runtime.GOMAXPROCS(prev)
	}
	tail, err := serveTailTable(s)
	if err != nil {
		return nil, err
	}
	cacheTab, err := serveCacheTable(s)
	if err != nil {
		return nil, err
	}
	return []Table{tail, cacheTab}, nil
}

// serveQuietServer builds a server whose logger is discarded: the
// overload run makes deliberately slow (partial) queries by the
// thousand, and the tracer's slow-query WARN lines are not the
// experiment's output.
func serveQuietServer(idx *cssi.Index, ds *cssi.Dataset) *server.Server {
	api := server.New(idx, ds.Model)
	api.SetLogger(slog.New(slog.NewTextHandler(io.Discard, nil)))
	return api
}

// serveLoad is one closed-loop run's accounting.
type serveLoad struct {
	latencies []time.Duration // non-shed (2xx) request latencies, server-side
	ok        int64           // 2xx responses
	shed      int64           // 429 responses
	partial   int64           // 2xx responses flagged meta.partial
	badShed   int64           // 429 responses missing Retry-After
}

// serveTimingHandler wraps the server's handler and records every
// request's SERVER-SIDE wall time — handler entry (post-accept) to
// response written, which includes the admission queue wait, the JSON
// codec, and the search itself. The closed-loop clients' own wall
// clocks are not used for the percentiles: on a single-core host a
// client goroutine waiting ~one preemption quantum (~10ms) for CPU to
// read its response would dominate the tail with harness noise the
// server never saw.
type serveTimingHandler struct {
	next      http.Handler
	mu        sync.Mutex
	latencies []time.Duration // per 2xx request
}

// serveStatusWriter captures the response status for the recorder.
type serveStatusWriter struct {
	http.ResponseWriter
	status int
}

func (w *serveStatusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (h *serveTimingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sw := &serveStatusWriter{ResponseWriter: w, status: http.StatusOK}
	t0 := time.Now()
	h.next.ServeHTTP(sw, r)
	d := time.Since(t0)
	if sw.status == http.StatusOK {
		h.mu.Lock()
		h.latencies = append(h.latencies, d)
		h.mu.Unlock()
	}
}

// serveTailTable runs the closed-loop overload comparison.
func serveTailTable(s Setup) (Table, error) {
	size := s.size(20000)
	ds, err := cssi.GenerateDataset(cssi.DatasetConfig{
		Kind: cssi.TwitterLike, Size: size, Dim: s.Dim, Seed: s.Seed,
	})
	if err != nil {
		return Table{}, err
	}
	idx, err := cssi.Build(ds, cssi.Options{Seed: s.Seed})
	if err != nil {
		return Table{}, err
	}
	queries := ds.SampleQueries(512, s.Seed+77)

	// Sub-scale runs (the CI smoke) shrink the measurement interval;
	// the recorded scale-1 numbers use the long one for stable tails.
	interval := 3 * time.Second
	if s.Scale < 0.5 {
		interval = 300 * time.Millisecond
	}

	// Calibrate the protections against the sequential median: the
	// per-request deadline is 3x p50seq (a healthy request never
	// trips it; a request stuck behind a backlog answers partial
	// instead of late), the queue wait 2x p50seq.
	p50seq, err := serveSequentialP50(idx, ds, queries, s)
	if err != nil {
		return Table{}, err
	}
	deadline := 3 * p50seq
	if deadline < time.Millisecond {
		deadline = time.Millisecond
	}
	queueWait := 2 * p50seq
	if queueWait < time.Millisecond {
		queueWait = time.Millisecond
	}
	// On this host one core does the computing, so one execution slot:
	// the admitted request owns the CPU instead of timesharing with a
	// second handler (which would double both requests' wall time), and
	// the queue bounds the wait behind it.
	inflight := 1
	maxQueue := 4
	// 2x saturation: the gate admits at most inflight+maxQueue requests
	// at once, and twice that many closed-loop clients keep arriving —
	// the excess is structurally beyond capacity, so the protected
	// config must shed (queue overflow) rather than queue unboundedly.
	workers := 2 * (inflight + maxQueue)

	tab := Table{
		ID:    "serve",
		Title: "Closed-loop overload: tail latency unprotected vs protected (deadline + admission control)",
		Note: fmt.Sprintf("HTTP stack end to end, %d closed-loop workers, 2%% heavy k=100 requests; "+
			"protected = %v request deadline + admission (inflight %d, queue %d, wait %v); "+
			"percentiles are server-side (handler entry to response written, queue wait included) over "+
			"NON-SHED (2xx) requests only — the protected p999 must stay within ~5x its p50",
			workers, deadline.Round(time.Microsecond), inflight, maxQueue, queueWait.Round(time.Microsecond)),
		Header: []string{"config", "requests", "shed", "shed %", "partial %", "p50 ms", "p99 ms", "p999 ms", "max ms"},
	}

	for _, protected := range []bool{false, true} {
		api := serveQuietServer(idx, ds)
		if protected {
			api.SetDefaultDeadline(deadline)
			if err := api.SetAdmissionLimits(inflight, maxQueue, queueWait); err != nil {
				return Table{}, err
			}
		}
		rec := &serveTimingHandler{next: api.Handler()}
		ts := httptest.NewServer(rec)
		load, err := serveClosedLoop(ts, queries, s, workers, interval, queueWait)
		ts.Close()
		if err == nil {
			load.latencies = rec.latencies
		}
		if err != nil {
			return Table{}, err
		}
		if load.badShed > 0 {
			return Table{}, fmt.Errorf("serve: %d shed responses missing the Retry-After header", load.badShed)
		}
		name := "unprotected"
		if protected {
			name = "protected"
		}
		total := load.ok + load.shed
		p50, p99, p999, max := serveTailStats(load.latencies)
		tab.Rows = append(tab.Rows, []string{
			name, itoa(int(total)), itoa(int(load.shed)),
			pct(float64(load.shed) / float64(total)),
			pct(float64(load.partial) / float64(load.ok)),
			f2(p50), f2(p99), f2(p999), f2(max),
		})
	}
	return tab, nil
}

// serveSequentialP50 measures the one-at-a-time median request latency
// through the full HTTP stack — the calibration baseline for the
// deadline and queue-wait knobs.
func serveSequentialP50(idx *cssi.Index, ds *cssi.Dataset, queries []cssi.Object, s Setup) (time.Duration, error) {
	api := serveQuietServer(idx, ds)
	ts := httptest.NewServer(api.Handler())
	defer ts.Close()
	const n = 40
	durs := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		q := &queries[i%len(queries)]
		t0 := time.Now()
		status, _, _, err := servePost(ts.Client(), ts.URL, q, s.K, s.Lambda)
		if err != nil {
			return 0, err
		}
		if status != http.StatusOK {
			return 0, fmt.Errorf("serve calibration: status %d", status)
		}
		durs = append(durs, time.Since(t0))
	}
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	return durs[len(durs)/2], nil
}

// serveClosedLoop drives the server with `workers` closed-loop clients
// for the interval. Every 50th request per worker is heavy (k=100);
// the rest use the setup's K. Queries round-robin a shared pool. A
// shed (429) response makes the client back off for `backoff` before
// its next request — the well-behaved-client contract Retry-After
// exists for, compressed to the experiment's time scale (sleeping the
// header's full second would end the worker's run after one shed).
func serveClosedLoop(ts *httptest.Server, queries []cssi.Object, s Setup, workers int, interval, backoff time.Duration) (*serveLoad, error) {
	var stop atomic.Bool
	var mu sync.Mutex
	agg := &serveLoad{}
	var firstErr error
	var wg sync.WaitGroup
	client := ts.Client()
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			local := serveLoad{}
			for i := g; !stop.Load(); i += workers {
				q := &queries[i%len(queries)]
				k := s.K
				if i%50 == 0 {
					k = 100 // the heavy head-of-line blocker
				}
				status, partial, retryAfter, err := servePost(client, ts.URL, q, k, s.Lambda)
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				switch status {
				case http.StatusOK:
					local.ok++
					if partial {
						local.partial++
					}
				case http.StatusTooManyRequests:
					local.shed++
					if retryAfter == "" {
						local.badShed++
					}
					time.Sleep(backoff)
				default:
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("serve: unexpected status %d", status)
					}
					mu.Unlock()
					return
				}
			}
			mu.Lock()
			agg.ok += local.ok
			agg.shed += local.shed
			agg.partial += local.partial
			agg.badShed += local.badShed
			mu.Unlock()
		}(g)
	}
	time.Sleep(interval)
	stop.Store(true)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if agg.ok == 0 {
		return nil, fmt.Errorf("serve: every request was shed; nothing to measure")
	}
	return agg, nil
}

// servePost posts one /v1/search request and returns (status, whether
// the response was flagged partial, the Retry-After header, error).
func servePost(client *http.Client, baseURL string, q *cssi.Object, k int, lambda float64) (int, bool, string, error) {
	body, err := json.Marshal(map[string]interface{}{
		"x": q.X, "y": q.Y, "vec": q.Vec, "k": k, "lambda": lambda,
	})
	if err != nil {
		return 0, false, "", err
	}
	resp, err := client.Post(baseURL+"/v1/search", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, false, "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, false, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, false, resp.Header.Get("Retry-After"), nil
	}
	var parsed struct {
		Meta struct {
			Partial bool `json:"partial"`
		} `json:"meta"`
	}
	if err := json.Unmarshal(b, &parsed); err != nil {
		return 0, false, "", fmt.Errorf("serve: malformed 200 body: %v", err)
	}
	return resp.StatusCode, parsed.Meta.Partial, "", nil
}

// serveTailStats reduces latencies to ms percentiles.
func serveTailStats(durs []time.Duration) (p50, p99, p999, max float64) {
	sorted := make([]time.Duration, len(durs))
	copy(sorted, durs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	at := func(q float64) time.Duration {
		i := int(q * float64(len(sorted)))
		if i >= len(sorted) {
			i = len(sorted) - 1
		}
		return sorted[i]
	}
	return ms(at(0.50)), ms(at(0.99)), ms(at(0.999)), ms(sorted[len(sorted)-1])
}

// serveCacheTable runs the 80/20 repeated-query mix through the
// snapshot-keyed result cache at the library layer (where answers can
// be compared bit-for-bit), with the exactness oracle on every hit.
func serveCacheTable(s Setup) (Table, error) {
	size := s.size(20000)
	ds, err := cssi.GenerateDataset(cssi.DatasetConfig{
		Kind: cssi.TwitterLike, Size: size, Dim: s.Dim, Seed: s.Seed + 3,
	})
	if err != nil {
		return Table{}, err
	}
	idx, err := cssi.Build(ds, cssi.Options{Seed: s.Seed})
	if err != nil {
		return Table{}, err
	}
	w := cssi.ShardedFrom(idx)
	w.EnableResultCache(0)

	requests := s.size(2000) // reuses the dataset-size scaling for the request count
	hot := ds.SampleQueries(20, s.Seed+101)
	cold := ds.SampleQueries(512, s.Seed+202)

	ctx := context.Background()
	var hitNS, missNS, hits, misses int64
	oracleChecks := 0
	for i := 0; i < requests; i++ {
		// Deterministic 80/20: four hot draws then one cold draw. The
		// hot index stride (7, coprime with 20) cycles the full hot set.
		var q *cssi.Object
		if i%5 != 4 {
			q = &hot[(i*7)%len(hot)]
		} else {
			q = &cold[(i/5)%len(cold)]
		}
		meta := cssi.ResponseMeta{}
		t0 := time.Now()
		res, err := w.DoContext(ctx, cssi.SearchRequest{
			Query: q, K: s.K, Lambda: s.Lambda, Meta: &meta,
		})
		d := time.Since(t0).Nanoseconds()
		if err != nil {
			return Table{}, err
		}
		if meta.CacheHit {
			hits, hitNS = hits+1, hitNS+d
			// The oracle: a hit must be bit-identical to the uncached
			// answer against the live snapshot.
			want, err := w.DoContext(ctx, cssi.SearchRequest{
				Query: q, K: s.K, Lambda: s.Lambda, Cache: cssi.CacheOff,
			})
			if err != nil {
				return Table{}, err
			}
			if !serveResultsEqual(res, want) {
				return Table{}, fmt.Errorf("serve: cache hit for query %d differs from the uncached answer", i)
			}
			oracleChecks++
		} else {
			misses, missNS = misses+1, missNS+d
		}
	}
	stats, ok := w.ResultCacheStats()
	if !ok {
		return Table{}, fmt.Errorf("serve: result cache reported disabled after EnableResultCache")
	}
	ratio := stats.HitRatio()
	if ratio < 0.5 {
		return Table{}, fmt.Errorf("serve: cache hit ratio %.3f below the 0.5 acceptance floor on the 80/20 mix", ratio)
	}
	meanUS := func(ns, n int64) float64 {
		if n == 0 {
			return 0
		}
		return float64(ns) / float64(n) / 1e3
	}
	tab := Table{
		ID:    "serve",
		Title: "Result cache on an 80/20 repeated-query mix (snapshot-keyed, exactness-oracled)",
		Note: "80% of requests drawn from 20 hot queries; every hit re-answered with Cache: CacheOff and " +
			"compared bit-for-bit (in-run exactness oracle); the run fails below a 0.5 hit ratio",
		Header: []string{"requests", "hits", "misses", "hit ratio", "hit µs", "miss µs", "speedup", "oracle checks"},
	}
	speedup := 0.0
	if hitNS > 0 && hits > 0 && misses > 0 {
		speedup = meanUS(missNS, misses) / meanUS(hitNS, hits)
	}
	tab.Rows = append(tab.Rows, []string{
		itoa(requests), itoa(int(hits)), itoa(int(misses)), f2(ratio),
		f1(meanUS(hitNS, hits)), f1(meanUS(missNS, misses)), f1(speedup), itoa(oracleChecks),
	})
	return tab, nil
}

// serveResultsEqual compares two result slices bit-for-bit (IDs and
// distances): the cache's exactness contract.
func serveResultsEqual(a, b []cssi.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Dist != b[i].Dist {
			return false
		}
	}
	return true
}
