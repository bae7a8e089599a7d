package server

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/obs"
)

// newTraceTestServer returns the Server alongside its httptest wrapper
// so tests can reconfigure the trace sink.
func newTraceTestServer(t *testing.T) (*Server, *httptest.Server, *cssi.Dataset) {
	t.Helper()
	ds, err := cssi.GenerateDataset(cssi.DatasetConfig{Kind: cssi.TwitterLike, Size: 500, Dim: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := cssi.Build(ds, cssi.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	api := New(idx, ds.Model)
	ts := httptest.NewServer(api.Handler())
	t.Cleanup(ts.Close)
	return api, ts, ds
}

func searchBody(ds *cssi.Dataset, i, k int) map[string]interface{} {
	q := ds.Objects[i]
	return map[string]interface{}{"x": q.X, "y": q.Y, "vec": q.Vec, "k": k, "lambda": 0.5}
}

func postSearch(t *testing.T, ts *httptest.Server, body interface{}, header map[string]string) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/search", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("search: %s\n%s", resp.Status, b)
	}
	return resp
}

func getTrace(t *testing.T, ts *httptest.Server, id string) (*obs.Trace, int) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/debug/traces/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, resp.StatusCode
	}
	var out struct {
		Trace *obs.Trace `json:"trace"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.Trace, resp.StatusCode
}

// TestTraceparentRoundTrip sends W3C trace context through /v1/search
// and asserts (a) the response echoes a traceparent continuing the
// caller's trace with this hop's request ID as span ID, and (b) the
// stored trace is retrievable by request ID with the inbound trace ID
// joined and a phase-consistent span tree.
func TestTraceparentRoundTrip(t *testing.T) {
	api, ts, ds := newTraceTestServer(t)
	api.SetTraceOptions(64, -1, 1) // keep every trace, no slow rule

	tid := "0af7651916cd43dd8448eb211c80319c"
	inbound := obs.FormatTraceParent(tid, "b7ad6b7169203331")
	resp := postSearch(t, ts, searchBody(ds, 5, 5), map[string]string{"traceparent": inbound})

	reqID := resp.Header.Get("X-Request-Id")
	if !obs.ValidSpanID(reqID) {
		t.Fatalf("generated request ID %q is not a valid span ID", reqID)
	}
	echo := resp.Header.Get("traceparent")
	gotTID, gotSpan, ok := obs.ParseTraceParent(echo)
	if !ok {
		t.Fatalf("response traceparent %q invalid", echo)
	}
	if gotTID != tid {
		t.Fatalf("response trace ID %q, want caller's %q", gotTID, tid)
	}
	if gotSpan != reqID {
		t.Fatalf("response span ID %q, want request ID %q (the scheme join)", gotSpan, reqID)
	}

	tr, status := getTrace(t, ts, reqID)
	if status != http.StatusOK {
		t.Fatalf("trace fetch by request ID: status %d", status)
	}
	if tr.RequestID != reqID || tr.TraceID != tid {
		t.Fatalf("stored trace ids %q/%q, want %q/%q", tr.RequestID, tr.TraceID, reqID, tid)
	}
	if tr.Op != "search" || tr.K != 5 || len(tr.Shards) == 0 {
		t.Fatalf("trace envelope wrong: op=%q k=%d spans=%d", tr.Op, tr.K, len(tr.Shards))
	}
	if tr.DurationNanos <= 0 {
		t.Fatalf("trace duration %d", tr.DurationNanos)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("stored trace violates phase invariants: %v", err)
	}

	// The same trace is also addressable by its W3C trace ID.
	if byTID, status := getTrace(t, ts, tid); status != http.StatusOK || byTID.RequestID != reqID {
		t.Fatalf("lookup by trace ID: status %d", status)
	}
}

// TestTraceWithoutInboundContext asserts requests without traceparent
// still record a retrievable trace (with a freshly minted trace ID on
// the response header).
func TestTraceWithoutInboundContext(t *testing.T) {
	api, ts, ds := newTraceTestServer(t)
	api.SetTraceOptions(64, -1, 1)

	resp := postSearch(t, ts, searchBody(ds, 1, 3), nil)
	reqID := resp.Header.Get("X-Request-Id")
	echoTID, _, ok := obs.ParseTraceParent(resp.Header.Get("traceparent"))
	if !ok {
		t.Fatalf("response traceparent %q invalid", resp.Header.Get("traceparent"))
	}
	tr, status := getTrace(t, ts, reqID)
	if status != http.StatusOK {
		t.Fatalf("trace fetch: status %d", status)
	}
	if tr.TraceID != echoTID {
		t.Fatalf("stored trace ID %q, want minted %q", tr.TraceID, echoTID)
	}
}

func TestDebugTracesList(t *testing.T) {
	api, ts, ds := newTraceTestServer(t)
	api.SetTraceOptions(64, -1, 1)

	var ids []string
	for i := 0; i < 5; i++ {
		resp := postSearch(t, ts, searchBody(ds, i, 3), nil)
		ids = append(ids, resp.Header.Get("X-Request-Id"))
	}

	get := func(url string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, b
	}

	status, body := get(ts.URL + "/v1/debug/traces")
	if status != http.StatusOK {
		t.Fatalf("list: status %d\n%s", status, body)
	}
	var list tracesResponse
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if !list.Enabled || list.Capacity != 64 || list.SampleEvery != 1 {
		t.Fatalf("policy echo wrong: %+v", list)
	}
	if list.Seen != 5 || list.Retained != 5 || len(list.Traces) != 5 {
		t.Fatalf("counts: seen=%d retained=%d listed=%d, want 5/5/5", list.Seen, list.Retained, len(list.Traces))
	}
	// Newest first: the most recent request leads.
	if list.Traces[0].RequestID != ids[4] {
		t.Fatalf("list[0] = %q, want newest %q", list.Traces[0].RequestID, ids[4])
	}
	for _, s := range list.Traces {
		if s.SampleReason != obs.KeepSampled {
			t.Fatalf("trace %s reason %q, want %q", s.RequestID, s.SampleReason, obs.KeepSampled)
		}
	}

	status, body = get(ts.URL + "/v1/debug/traces?limit=2")
	if err := json.Unmarshal(body, &list); err != nil || status != http.StatusOK {
		t.Fatalf("limited list: %d %v", status, err)
	}
	if len(list.Traces) != 2 {
		t.Fatalf("limit=2 returned %d traces", len(list.Traces))
	}

	if status, _ = get(ts.URL + "/v1/debug/traces?limit=bogus"); status != http.StatusBadRequest {
		t.Fatalf("bad limit: status %d, want 400", status)
	}
	if status, _ = get(ts.URL + "/v1/debug/traces?limit=-1"); status != http.StatusBadRequest {
		t.Fatalf("negative limit: status %d, want 400", status)
	}
}

func TestTracingDisabled(t *testing.T) {
	api, ts, ds := newTraceTestServer(t)
	api.SetTraceOptions(0, 0, 0) // buffer 0 disables tracing entirely

	resp := postSearch(t, ts, searchBody(ds, 0, 3), nil)
	reqID := resp.Header.Get("X-Request-Id")

	listResp, err := http.Get(ts.URL + "/v1/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer listResp.Body.Close()
	var list tracesResponse
	if err := json.NewDecoder(listResp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if list.Enabled || len(list.Traces) != 0 {
		t.Fatalf("disabled sink lists %+v", list)
	}
	if _, status := getTrace(t, ts, reqID); status != http.StatusNotFound {
		t.Fatalf("by-id with tracing off: status %d, want 404", status)
	}
}

// TestSlowQueryForensics retains every query via a 1ns slow threshold
// and asserts the offending trace is retrievable by ID and the slow
// query hit the structured log channel with its correlation IDs.
func TestSlowQueryForensics(t *testing.T) {
	api, ts, ds := newTraceTestServer(t)
	var logBuf bytes.Buffer
	var mu sync.Mutex
	api.SetLogger(slog.New(slog.NewJSONHandler(syncWriter{&mu, &logBuf}, nil)))
	api.SetTraceOptions(64, time.Nanosecond, -1) // everything is "slow", no normal sampling

	resp := postSearch(t, ts, searchBody(ds, 2, 4), nil)
	reqID := resp.Header.Get("X-Request-Id")

	tr, status := getTrace(t, ts, reqID)
	if status != http.StatusOK {
		t.Fatalf("slow trace fetch: status %d", status)
	}
	if tr.SampleReason != obs.KeepSlow {
		t.Fatalf("reason %q, want %q", tr.SampleReason, obs.KeepSlow)
	}

	mu.Lock()
	logs := logBuf.String()
	mu.Unlock()
	for _, want := range []string{"slow query", reqID, "spans"} {
		if !bytes.Contains([]byte(logs), []byte(want)) {
			t.Fatalf("slow-query log missing %q:\n%s", want, logs)
		}
	}
}

type syncWriter struct {
	mu *sync.Mutex
	w  io.Writer
}

func (s syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// TestTracesConcurrent stresses concurrent search traffic against
// /debug/traces readers (run under -race in CI): the lock-free ring and
// sink counters must hold up while writers retain and readers page.
func TestTracesConcurrent(t *testing.T) {
	api, ts, ds := newTraceTestServer(t)
	api.SetTraceOptions(16, -1, 1)

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				body, _ := json.Marshal(searchBody(ds, (w*25+i)%len(ds.Objects), 3))
				resp, err := http.Post(ts.URL+"/v1/search", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Errorf("search: %v", err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(w)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				resp, err := http.Get(ts.URL + "/v1/debug/traces")
				if err != nil {
					t.Errorf("list: %v", err)
					return
				}
				var list tracesResponse
				if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
					t.Errorf("decode: %v", err)
				}
				resp.Body.Close()
				for _, s := range list.Traces {
					if s.RequestID == "" {
						t.Error("listed trace without request ID")
					}
				}
			}
		}()
	}
	wg.Wait()

	resp, err := http.Get(ts.URL + "/v1/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list tracesResponse
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if list.Seen != 100 || list.Retained != 100 {
		t.Fatalf("seen=%d retained=%d, want 100/100", list.Seen, list.Retained)
	}
	if len(list.Traces) != 16 {
		t.Fatalf("ring holds %d traces, want capacity 16", len(list.Traces))
	}
}

// TestMetricsExposeSLOAndTraceSeries asserts the new /metrics series:
// per-endpoint SLO counters, shard-imbalance series, trace-sink
// counters, and OpenMetrics exemplar negotiation.
func TestMetricsExposeSLOAndTraceSeries(t *testing.T) {
	api, ts, ds := newTraceTestServer(t)
	api.SetTraceOptions(64, -1, 1)
	if err := api.SetSLOObjectives([]time.Duration{time.Nanosecond, time.Second}); err != nil {
		t.Fatal(err)
	}
	postSearch(t, ts, searchBody(ds, 3, 5), nil)

	get := func(accept string) string {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/metrics", nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return string(b)
	}

	plain := get("")
	for _, want := range []string{
		`cssi_slo_requests_total{endpoint="search"} 1`,
		`cssi_slo_violations_total{endpoint="search",objective="1e-09"} 1`,
		`cssi_slo_violations_total{endpoint="search",objective="1"} 0`,
		"cssi_traces_seen_total 1",
		"cssi_traces_retained_total 1",
		"cssi_trace_ring_capacity 64",
		"cssi_shard_imbalance_ratio_bucket",
	} {
		if !bytes.Contains([]byte(plain), []byte(want)) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if bytes.Contains([]byte(plain), []byte("# EOF")) {
		t.Error("plain scrape carries OpenMetrics terminator")
	}

	om := get("application/openmetrics-text")
	if !bytes.Contains([]byte(om), []byte("# EOF")) {
		t.Error("OpenMetrics scrape missing # EOF terminator")
	}
	if !bytes.Contains([]byte(om), []byte("request_id=")) {
		t.Error("OpenMetrics scrape missing latency exemplar")
	}
}

// TestSLOObjectivesValidation pins the knob's error cases.
func TestSLOObjectivesValidation(t *testing.T) {
	api, _, _ := newTraceTestServer(t)
	if err := api.SetSLOObjectives([]time.Duration{5 * time.Millisecond, time.Millisecond}); err == nil {
		t.Error("descending objectives accepted")
	}
	if err := api.SetSLOObjectives([]time.Duration{0}); err == nil {
		t.Error("zero objective accepted")
	}
	if err := api.SetSLOObjectives([]time.Duration{time.Millisecond, 25 * time.Millisecond}); err != nil {
		t.Errorf("valid objectives rejected: %v", err)
	}
}
