//go:build timing

// Wall-clock checks, kept out of the regular suite because they measure
// the host as much as the code. Run them on an otherwise idle machine:
//
//	GOMAXPROCS=2 go test -tags timing -run 'Overhead|ProtectedTail' -v .
//
// Each bound is loose enough for a shared CI runner and tight enough to
// catch an accidental allocation, lock or unbounded backlog on the path
// it guards.

package cssi_test

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	cssi "repro"
	"repro/internal/obs"
	"repro/internal/server"
)

// timingIndex builds the twitter-like flat index the overhead checks
// share: size objects of dimension dim, the dataset seeded with
// 1+size, the build with 1, and n sampled queries.
func timingIndex(t *testing.T, size, dim, n int) (*cssi.Index, []cssi.Object) {
	t.Helper()
	ds, err := cssi.GenerateDataset(cssi.DatasetConfig{Kind: cssi.TwitterLike, Size: size, Dim: dim, Seed: uint64(1 + size)})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := cssi.Build(ds, cssi.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return idx, ds.SampleQueries(n, 12)
}

// pairedOverhead runs workload(true) and workload(false) back to back in
// pairs of alternating order, so both arms see the same host, and
// returns the median of the per-pair on/off ratios less 1, in percent.
func pairedOverhead(pairs int, workload func(on bool) time.Duration) float64 {
	ratios := make([]float64, 0, pairs)
	for trial := 0; trial < pairs; trial++ {
		first := trial%2 == 0
		a, b := workload(first), workload(!first)
		on, off := a, b
		if !first {
			on, off = b, a
		}
		ratios = append(ratios, float64(on)/float64(off))
	}
	sort.Float64s(ratios)
	return 100 * ((ratios[(pairs-1)/2]+ratios[pairs/2])/2 - 1)
}

// TestExplainOverhead times the same exact workload (1,000 objects,
// n = 32, 200 queries, k = 10) through Do with and without
// SearchRequest.Explain, in 80 pairs of alternating order; the median
// explained/bare ratio may exceed 1 by at most 5 %. An explained read is
// never striped and a bare Do may be, so the test runs under
// GOMAXPROCS(1), where neither is: the two arms then differ by the
// counters alone.
func TestExplainOverhead(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	idx, queries := timingIndex(t, 1000, 32, 200)
	dst := make([]cssi.Result, 0, 10)
	var es cssi.ExplainStats
	workload := func(explain bool) time.Duration {
		runtime.GC()
		start := time.Now()
		for qi := range queries {
			req := cssi.SearchRequest{Query: &queries[qi], K: 10, Lambda: 0.5, Dst: dst[:0]}
			if explain {
				req.Explain = &es
			}
			var err error
			if dst, err = idx.Do(req); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(start)
	}
	workload(false) // warm the scratch pool on both paths
	workload(true)

	const pairs = 80
	overhead := pairedOverhead(pairs, workload)
	t.Logf("explain overhead %+.2f%% (median of %d paired ratios)", overhead, pairs)
	if overhead > 5 {
		t.Errorf("Explain costs %.2f%% over a bare Do, want <= 5%%", overhead)
	}
}

// TestTracerOverhead times the same exact workload (20,000 objects,
// n = 100, 100 queries, k = 50) through Do with no trace sink and with
// the default tail-sampling sink. Both arms carry Stats and a pre-minted
// request ID, as every served /search does, so the difference is the
// tracer's own cost. The two arms run back to back in 40 pairs of
// alternating order; the median on/off ratio may exceed 1 by at most
// 5 %, and the sink must have seen the traced arm's traces.
func TestTracerOverhead(t *testing.T) {
	idx, queries := timingIndex(t, 20000, 100, 100)
	sink := obs.NewSink(obs.SinkConfig{BufferSize: 256})
	ids := make([]string, len(queries))
	for i := range ids {
		ids[i] = obs.NewRequestID()
	}
	var st cssi.Stats
	workload := func(traced bool) time.Duration {
		if traced {
			idx.SetTraceSink(sink)
		} else {
			idx.SetTraceSink(nil)
		}
		runtime.GC()
		start := time.Now()
		for qi := range queries {
			if _, err := idx.Do(cssi.SearchRequest{
				Query: &queries[qi], K: 50, Lambda: 0.5, Stats: &st, RequestID: ids[qi],
			}); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(start)
	}
	workload(false)
	workload(true)

	const pairs = 40
	overhead := pairedOverhead(pairs, workload)
	idx.SetTraceSink(nil)
	seen, retained, _ := sink.Counts()
	t.Logf("tracer overhead %+.2f%% (median of %d paired ratios), traces seen %d, retained %d", overhead, pairs, seen, retained)
	if overhead > 5 {
		t.Errorf("tracing costs %.2f%% over an untraced Do, want <= 5%%", overhead)
	}
	if seen == 0 {
		t.Error("the traced arm recorded no traces")
	}
}

// TestProtectedTail drives the full HTTP stack with 10 closed-loop
// clients for 300 ms against a server with one execution slot, a
// 4-deep admission queue, a queue wait of 2x and a request deadline of
// 3x the sequential median (each at least 1 ms). Every 50th request is
// a heavy k = 100 one; a shed client backs off for the queue wait. The
// admitted requests' p999, timed server-side from handler entry to the
// written response, must stay below 250 ms: a bounded queue keeps the
// non-shed tail far from an unbounded backlog's seconds.
func TestProtectedTail(t *testing.T) {
	ds, err := cssi.GenerateDataset(cssi.DatasetConfig{Kind: cssi.TwitterLike, Size: 1000, Dim: 32, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := cssi.Build(ds, cssi.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	queries := ds.SampleQueries(512, 78)
	newServer := func() *server.Server {
		api := server.New(idx, ds.Model)
		api.SetLogger(slog.New(slog.NewTextHandler(io.Discard, nil)))
		return api
	}
	post := func(client *http.Client, url string, q *cssi.Object, k int) int {
		body, err := json.Marshal(map[string]interface{}{"x": q.X, "y": q.Y, "vec": q.Vec, "k": k, "lambda": 0.5})
		if err != nil {
			t.Error(err)
			return 0
		}
		resp, err := client.Post(url+"/v1/search", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			return 0
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			t.Error(err)
			return 0
		}
		return resp.StatusCode
	}

	// Calibrate: the median of 40 sequential requests.
	calib := httptest.NewServer(newServer().Handler())
	t.Cleanup(calib.Close)
	seq := make([]time.Duration, 40)
	for i := range seq {
		start := time.Now()
		if status := post(calib.Client(), calib.URL, &queries[i], 10); status != http.StatusOK {
			t.Fatalf("calibration request answered %d", status)
		}
		seq[i] = time.Since(start)
	}
	sort.Slice(seq, func(i, j int) bool { return seq[i] < seq[j] })
	deadline := max(3*seq[len(seq)/2], time.Millisecond)
	queueWait := max(2*seq[len(seq)/2], time.Millisecond)

	api := newServer()
	api.SetDefaultDeadline(deadline)
	if err := api.SetAdmissionLimits(1, 4, queueWait); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var admitted []time.Duration
	handler := api.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		handler.ServeHTTP(sw, r)
		if d := time.Since(start); sw.status == http.StatusOK {
			mu.Lock()
			admitted = append(admitted, d)
			mu.Unlock()
		}
	}))
	defer ts.Close()

	const workers = 10
	var stop atomic.Bool
	var shed atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; !stop.Load(); i += workers {
				k := 10
				if i%50 == 0 {
					k = 100
				}
				switch status := post(ts.Client(), ts.URL, &queries[i%len(queries)], k); status {
				case http.StatusOK:
				case http.StatusTooManyRequests:
					shed.Add(1)
					time.Sleep(queueWait)
				default:
					t.Errorf("unexpected status %d", status)
					return
				}
			}
		}(g)
	}
	time.Sleep(300 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if len(admitted) == 0 {
		t.Fatal("every request was shed; nothing to measure")
	}
	sort.Slice(admitted, func(i, j int) bool { return admitted[i] < admitted[j] })
	p50 := admitted[len(admitted)/2]
	p999 := admitted[min(int(0.999*float64(len(admitted))), len(admitted)-1)]
	t.Logf("admitted %d, shed %d; p50 %v, p999 %v (deadline %v, queue wait %v)",
		len(admitted), shed.Load(), p50, p999, deadline, queueWait)
	if p999 > 250*time.Millisecond {
		t.Errorf("protected non-shed p999 %v, want < 250ms", p999)
	}
}

// statusWriter records the status a handler writes.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}
