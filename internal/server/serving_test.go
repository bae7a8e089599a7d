package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
)

// newServingTestServer builds a server with the serving features on:
// result cache, a default deadline, and tight admission limits the
// tests can saturate deterministically.
func newServingTestServer(t *testing.T, cfg func(*Server)) (*httptest.Server, *cssi.Dataset) {
	t.Helper()
	ds, err := cssi.GenerateDataset(cssi.DatasetConfig{Kind: cssi.TwitterLike, Size: 600, Dim: 16, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := cssi.Build(ds, cssi.Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	api := New(idx, ds.Model)
	if cfg != nil {
		cfg(api)
	}
	ts := httptest.NewServer(api.Handler())
	t.Cleanup(ts.Close)
	return ts, ds
}

// metaOf decodes the meta block out of a response body.
func metaOf(t *testing.T, body []byte) map[string]interface{} {
	t.Helper()
	var m struct {
		Meta map[string]interface{} `json:"meta"`
	}
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("bad body: %v\n%s", err, body)
	}
	if m.Meta == nil {
		t.Fatalf("no meta block:\n%s", body)
	}
	return m.Meta
}

// TestResponseMetaBlock pins the uniform meta block: every query
// endpoint returns requestId/partial/cacheHit, a cache-enabled server
// reports cacheHit=true on the second identical request, and the
// cached body is bit-identical to the computed one.
func TestResponseMetaBlock(t *testing.T) {
	ts, ds := newServingTestServer(t, func(s *Server) { s.EnableResultCache(256) })
	q := ds.Objects[4]
	body := map[string]interface{}{"x": q.X, "y": q.Y, "vec": q.Vec, "k": 5, "lambda": 0.5}

	status, first := rawPost(t, ts.URL+"/v1/search", body)
	if status != http.StatusOK {
		t.Fatalf("search: %d %s", status, first)
	}
	meta := metaOf(t, first)
	if meta["requestId"] == "" {
		t.Fatal("empty meta.requestId")
	}
	if meta["cacheHit"] != false || meta["partial"] != false {
		t.Fatalf("first search meta: %+v", meta)
	}

	status, second := rawPost(t, ts.URL+"/v1/search", body)
	if status != http.StatusOK {
		t.Fatalf("search: %d %s", status, second)
	}
	if meta := metaOf(t, second); meta["cacheHit"] != true {
		t.Fatalf("second identical search did not hit the cache: %+v", meta)
	}
	// The answer itself must be bit-identical; visited legitimately drops
	// to 0 on a hit (no search work ran), so compare the results array.
	resultsOf := func(body []byte) json.RawMessage {
		var m struct {
			Results json.RawMessage `json:"results"`
		}
		if err := json.Unmarshal(body, &m); err != nil {
			t.Fatalf("bad body: %v\n%s", err, body)
		}
		return m.Results
	}
	if !bytes.Equal(resultsOf(first), resultsOf(second)) {
		t.Fatalf("cached results differ from computed:\n%s\nvs\n%s", first, second)
	}

	// cache:"off" bypasses — and still answers identically.
	off := map[string]interface{}{"x": q.X, "y": q.Y, "vec": q.Vec, "k": 5, "lambda": 0.5, "cache": "off"}
	status, third := rawPost(t, ts.URL+"/v1/search", off)
	if status != http.StatusOK {
		t.Fatalf("cache-off search: %d %s", status, third)
	}
	if meta := metaOf(t, third); meta["cacheHit"] != false {
		t.Fatalf("cache:off request reported a hit: %+v", meta)
	}

	// The other query endpoints carry the block too.
	endpoints := []struct {
		path string
		req  map[string]interface{}
	}{
		{"/v1/search/batch", map[string]interface{}{
			"queries": []map[string]interface{}{{"x": q.X, "y": q.Y, "vec": q.Vec}}, "k": 3, "lambda": 0.5}},
		{"/v1/range", map[string]interface{}{"x": q.X, "y": q.Y, "vec": q.Vec, "radius": 0.2, "lambda": 0.5}},
		{"/v1/box", map[string]interface{}{"x": q.X, "y": q.Y, "vec": q.Vec, "k": 5, "loX": 0, "loY": 0, "hiX": 1, "hiY": 1}},
		{"/v1/debug/explain", map[string]interface{}{"x": q.X, "y": q.Y, "vec": q.Vec, "k": 5, "lambda": 0.5}},
	}
	for _, ep := range endpoints {
		status, b := rawPost(t, ts.URL+ep.path, ep.req)
		if status != http.StatusOK {
			t.Fatalf("%s: %d %s", ep.path, status, b)
		}
		if meta := metaOf(t, b); meta["requestId"] == "" {
			t.Fatalf("%s: empty meta.requestId", ep.path)
		}
	}

	// An invalid cache mode is a 400 in the envelope.
	bad := map[string]interface{}{"x": q.X, "y": q.Y, "vec": q.Vec, "k": 5, "lambda": 0.5, "cache": "sideways"}
	if status, b := rawPost(t, ts.URL+"/v1/search", bad); status != http.StatusBadRequest {
		t.Fatalf("bogus cache mode: %d %s", status, b)
	}
}

// TestDeadlineMsField pins the request-level budget: a generous
// deadline answers completely, a negative one is a 400, and the
// default-deadline server setting fills requests that omit it.
func TestDeadlineMsField(t *testing.T) {
	ts, ds := newServingTestServer(t, func(s *Server) { s.SetDefaultDeadline(5 * time.Second) })
	q := ds.Objects[8]
	ok := map[string]interface{}{"x": q.X, "y": q.Y, "vec": q.Vec, "k": 5, "lambda": 0.5, "deadlineMs": 30000}
	status, b := rawPost(t, ts.URL+"/v1/search", ok)
	if status != http.StatusOK {
		t.Fatalf("deadlineMs search: %d %s", status, b)
	}
	if meta := metaOf(t, b); meta["partial"] != false {
		t.Fatalf("30s budget reported partial: %+v", meta)
	}
	bad := map[string]interface{}{"x": q.X, "y": q.Y, "vec": q.Vec, "k": 5, "lambda": 0.5, "deadlineMs": -3}
	if status, b := rawPost(t, ts.URL+"/v1/search", bad); status != http.StatusBadRequest {
		t.Fatalf("negative deadlineMs: %d %s", status, b)
	}
	// Batch spelling.
	batch := map[string]interface{}{
		"queries": []map[string]interface{}{{"x": q.X, "y": q.Y, "vec": q.Vec}},
		"k":       3, "lambda": 0.5, "deadlineMs": 30000,
	}
	if status, b := rawPost(t, ts.URL+"/v1/search/batch", batch); status != http.StatusOK {
		t.Fatalf("batch deadlineMs: %d %s", status, b)
	}
}

// TestAdmissionControlSheds drives a one-slot gate deterministically:
// with the slot occupied, a zero-queue gate sheds immediately (429,
// Retry-After, envelope code too_many_requests), a released slot
// admits again, a one-deep queue sheds its waiter once maxWait
// expires, and the shed and gauge rows appear in /metrics. (On a
// single-core host short handlers never overlap, so this test occupies
// the slot by hand; the closed-loop overload run is the root package's
// TestProtectedTail, built with -tags timing.)
func TestAdmissionControlSheds(t *testing.T) {
	ds, err := cssi.GenerateDataset(cssi.DatasetConfig{Kind: cssi.TwitterLike, Size: 600, Dim: 16, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := cssi.Build(ds, cssi.Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	api := New(idx, ds.Model)
	if err := api.SetAdmissionLimits(1, 0, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(api.Handler())
	t.Cleanup(ts.Close)
	var searchGate *admissionGate
	for _, g := range api.gates {
		if g.name == "search" {
			searchGate = g
		}
	}
	if searchGate == nil {
		t.Fatal("no gate installed for the search endpoint")
	}

	q := ds.Objects[2]
	body, _ := json.Marshal(map[string]interface{}{"x": q.X, "y": q.Y, "vec": q.Vec, "k": 5, "lambda": 0.5})
	post := func() (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/search", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, b
	}

	// Occupy the single execution slot; the next request must shed.
	searchGate.inflight <- struct{}{}
	resp, b := post()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated gate answered %d: %s", resp.StatusCode, b)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	var env errorEnvelope
	if err := json.Unmarshal(b, &env); err != nil || env.Error.Code != "too_many_requests" {
		t.Fatalf("429 envelope wrong: %v %s", err, b)
	}
	if env.Error.RequestID == "" {
		t.Fatal("429 envelope missing request_id")
	}

	// Release the slot: the endpoint admits again.
	<-searchGate.inflight
	if resp, b := post(); resp.StatusCode != http.StatusOK {
		t.Fatalf("released gate answered %d: %s", resp.StatusCode, b)
	}

	if got := searchGate.shed.Load(); got != 1 {
		t.Fatalf("shed counter %d, want 1", got)
	}

	// With a one-deep queue, a queued request waits and then sheds once
	// maxWait expires while the slot stays occupied.
	queued := New(idx, ds.Model)
	if err := queued.SetAdmissionLimits(1, 1, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	qts := httptest.NewServer(queued.Handler())
	t.Cleanup(qts.Close)
	var queuedGate *admissionGate
	for _, g := range queued.gates {
		if g.name == "search" {
			queuedGate = g
		}
	}
	queuedGate.inflight <- struct{}{}
	start := time.Now()
	qresp, err := http.Post(qts.URL+"/v1/search", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	qresp.Body.Close()
	waited := time.Since(start)
	if qresp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("queue-timeout request answered %d", qresp.StatusCode)
	}
	if waited < queuedGate.maxWait {
		t.Fatalf("queued request shed after %v, before maxWait %v", waited, queuedGate.maxWait)
	}
	<-queuedGate.inflight
	if got := queuedGate.shed.Load(); got != 1 {
		t.Fatalf("queued gate's shed counter %d, want 1", got)
	}

	mresp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	text := string(mb)
	for _, want := range []string{
		`cssi_requests_shed_total{endpoint="search"}`,
		`cssi_admission_queue_depth{endpoint="search"}`,
		`cssi_admission_inflight{endpoint="search"}`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, grepMetric(text, "cssi_admission"))
		}
	}
}

// TestAdmissionQueueWaitSurfaced pins the queue-wait plumbing: a
// request admitted after waiting in the queue reports its wait in
// meta.queueWaitMs.
func TestAdmissionQueueWaitSurfaced(t *testing.T) {
	ds, err := cssi.GenerateDataset(cssi.DatasetConfig{Kind: cssi.TwitterLike, Size: 400, Dim: 16, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := cssi.Build(ds, cssi.Options{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	api := New(idx, ds.Model)
	if err := api.SetAdmissionLimits(1, 4, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(api.Handler())
	t.Cleanup(ts.Close)
	var gate *admissionGate
	for _, g := range api.gates {
		if g.name == "search" {
			gate = g
		}
	}

	// Hold the slot, fire the request (it queues), release after a beat.
	gate.inflight <- struct{}{}
	var wg sync.WaitGroup
	wg.Add(1)
	var meta map[string]interface{}
	go func() {
		defer wg.Done()
		q := ds.Objects[1]
		status, b := rawPost(t, ts.URL+"/v1/search",
			map[string]interface{}{"x": q.X, "y": q.Y, "vec": q.Vec, "k": 3, "lambda": 0.5})
		if status != http.StatusOK {
			t.Errorf("queued request answered %d: %s", status, b)
			return
		}
		meta = metaOf(t, b)
	}()
	time.Sleep(30 * time.Millisecond)
	<-gate.inflight
	wg.Wait()
	if t.Failed() {
		return
	}
	wait, _ := meta["queueWaitMs"].(float64)
	if wait <= 0 {
		t.Fatalf("queued request did not surface its wait: %+v", meta)
	}
}

// TestCacheMetricsRows asserts the result-cache block appears in
// /metrics once the cache is enabled and the hit counters move.
func TestCacheMetricsRows(t *testing.T) {
	ts, ds := newServingTestServer(t, func(s *Server) { s.EnableResultCache(64) })
	q := ds.Objects[6]
	body := map[string]interface{}{"x": q.X, "y": q.Y, "vec": q.Vec, "k": 5, "lambda": 0.5}
	for i := 0; i < 3; i++ {
		if status, b := rawPost(t, ts.URL+"/v1/search", body); status != http.StatusOK {
			t.Fatalf("search %d: %d %s", i, status, b)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(b)
	if !strings.Contains(text, "cssi_result_cache_hits_total 2") {
		t.Fatalf("cache hits row wrong:\n%s", grepMetric(text, "cssi_result_cache"))
	}
	if !strings.Contains(text, "cssi_result_cache_hit_ratio") {
		t.Fatalf("hit-ratio row missing:\n%s", grepMetric(text, "cssi_result_cache"))
	}
}
