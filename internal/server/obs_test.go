package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"testing"
)

// TestFormatBound pins the bucket-bound rendering: bounds below 1e-5
// must keep their value (the old %.5f formatting truncated them to
// "0") and every bound must round-trip through ParseFloat.
func TestFormatBound(t *testing.T) {
	cases := map[float64]string{
		1e-06:   "1e-06",
		2.5e-05: "2.5e-05",
		0.0001:  "0.0001",
		0.00025: "0.00025",
		0.25:    "0.25",
		1:       "1",
		2.5:     "2.5",
		60:      "60",
	}
	for in, want := range cases {
		got := formatBound(in)
		if got != want {
			t.Errorf("formatBound(%v) = %q, want %q", in, got, want)
		}
		back, err := strconv.ParseFloat(got, 64)
		if err != nil || back != in {
			t.Errorf("formatBound(%v) = %q does not round-trip (%v, %v)", in, got, back, err)
		}
	}
}

// parseExposition decodes every sample line of a Prometheus text
// exposition into series -> value, failing the test on any line that
// is neither a comment nor a well-formed sample.
func parseExposition(t *testing.T, text string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed exposition line %q", line)
		}
		series, valStr := line[:sp], line[sp+1:]
		v, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		if _, dup := out[series]; dup {
			t.Fatalf("duplicate series %q", series)
		}
		out[series] = v
	}
	return out
}

// checkHistogram asserts the cumulative bucket invariants of one
// exposed histogram: monotone non-decreasing buckets, +Inf equal to
// _count, and a parseable le label on every bucket.
func checkHistogram(t *testing.T, text, name string) {
	t.Helper()
	series := parseExposition(t, text)
	count, ok := series[name+"_count"]
	if !ok {
		t.Fatalf("histogram %s has no _count", name)
	}
	if _, ok := series[name+"_sum"]; !ok {
		t.Fatalf("histogram %s has no _sum", name)
	}
	prev := -1.0
	prevBound := -1.0
	buckets := 0
	sawInf := false
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, name+"_bucket{le=\"") {
			continue
		}
		buckets++
		rest := line[len(name)+12:]
		end := strings.IndexByte(rest, '"')
		leStr := rest[:end]
		var v float64
		if _, err := fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%g", &v); err != nil {
			t.Fatalf("bucket value in %q: %v", line, err)
		}
		if v < prev {
			t.Fatalf("%s not cumulative at le=%q: %v < %v", name, leStr, v, prev)
		}
		prev = v
		if leStr == "+Inf" {
			sawInf = true
			if v != count {
				t.Fatalf("%s +Inf bucket %v != count %v", name, v, count)
			}
			continue
		}
		bound, err := strconv.ParseFloat(leStr, 64)
		if err != nil {
			t.Fatalf("unparseable le %q in %s", leStr, name)
		}
		if bound <= prevBound {
			t.Fatalf("%s bounds not increasing at %v", name, bound)
		}
		if bound == 0 {
			t.Fatalf("%s has a zero bound (formatBound truncation?)", name)
		}
		prevBound = bound
	}
	if buckets == 0 || !sawInf {
		t.Fatalf("histogram %s: %d buckets, +Inf=%v", name, buckets, sawInf)
	}
}

// Every exported series must parse, every histogram must be present
// (even before any observation) and internally consistent, and the new
// gauge/info series must carry sane values.
func TestMetricsScrapeAndParse(t *testing.T) {
	ts, ds, _ := newShardedTestServer(t)

	// Traffic so each histogram class has observations: a search (query
	// latency + read efficiency), an insert + delete (mutation latency),
	// and a waited rebuild (rebuild duration).
	q := ds.Objects[7]
	if resp, _ := postJSON(t, ts.URL+"/v1/search", map[string]interface{}{
		"x": q.X, "y": q.Y, "vec": q.Vec, "k": 5, "lambda": 0.5,
	}); resp.StatusCode != http.StatusOK {
		t.Fatalf("search status %d", resp.StatusCode)
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/objects", map[string]interface{}{
		"id": 970001, "x": q.X, "y": q.Y, "vec": q.Vec,
	}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("insert status %d", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/objects?id=970001", nil)
	if resp, err := http.DefaultClient.Do(req); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: %v", err)
	}
	if resp, err := http.Post(ts.URL+"/v1/rebuild?wait=1", "application/json", nil); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("rebuild: %v %v", err, resp.Status)
	}

	text := scrapeMetrics(t, ts.URL)
	series := parseExposition(t, text)

	for _, h := range []string{
		"cssi_search_latency_seconds",
		"cssi_mutation_latency_seconds",
		"cssi_rebuild_duration_seconds",
		"cssi_search_read_efficiency",
		"cssi_search_clusters_pruned_ratio",
	} {
		checkHistogram(t, text, h)
	}
	if series["cssi_mutation_latency_seconds_count"] < 2 {
		t.Fatalf("mutation latency count %v, want >= 2", series["cssi_mutation_latency_seconds_count"])
	}
	if series["cssi_rebuild_duration_seconds_count"] < 1 {
		t.Fatalf("rebuild duration count %v", series["cssi_rebuild_duration_seconds_count"])
	}
	if series["cssi_search_read_efficiency_count"] < 1 {
		t.Fatalf("read efficiency count %v", series["cssi_search_read_efficiency_count"])
	}

	// Publications: every shard published at least twice (build +
	// rebuild), the written shard a third time.
	pubs := 0.0
	for i := 0; i < 4; i++ {
		p := series[fmt.Sprintf(`cssi_shard_snapshot_publications_total{shard="%d"}`, i)]
		if p < 2 {
			t.Fatalf("shard %d publications %v, want >= 2", i, p)
		}
		pubs += p
	}
	if pubs < 10 { // 4 builds + 4 rebuilds + insert + delete
		t.Fatalf("publications sum %v, want >= 10", pubs)
	}

	if series["cssi_go_goroutines"] < 1 {
		t.Fatalf("goroutines %v", series["cssi_go_goroutines"])
	}
	if series["cssi_go_heap_objects_bytes"] <= 0 {
		t.Fatalf("heap bytes %v", series["cssi_go_heap_objects_bytes"])
	}
	if series["cssi_process_uptime_seconds"] < 0 {
		t.Fatalf("uptime %v", series["cssi_process_uptime_seconds"])
	}
	found := false
	for s, v := range series {
		if strings.HasPrefix(s, "cssi_build_info{") {
			found = true
			if v != 1 {
				t.Fatalf("build info value %v", v)
			}
			if !strings.Contains(s, `goversion="go`) {
				t.Fatalf("build info labels %q", s)
			}
		}
	}
	if !found {
		t.Fatal("cssi_build_info missing")
	}

	// The metrics endpoint instruments itself: a second scrape sees the
	// first one counted.
	text = scrapeMetrics(t, ts.URL)
	if got := metricValue(t, text, `cssi_http_requests_total{endpoint="metrics"}`); got < 1 {
		t.Fatalf("metrics endpoint requests %v", got)
	}
}

// An empty registry must still emit every histogram series (scrapers
// and recording rules need the metric to exist from the first scrape).
func TestMetricsEmittedWhenEmpty(t *testing.T) {
	ts, _, _ := newShardedTestServer(t)
	text := scrapeMetrics(t, ts.URL)
	series := parseExposition(t, text)
	for _, name := range []string{
		"cssi_search_latency_seconds_count",
		"cssi_mutation_latency_seconds_count",
		"cssi_rebuild_duration_seconds_count",
		"cssi_search_read_efficiency_count",
		"cssi_search_clusters_pruned_ratio_count",
	} {
		if v, ok := series[name]; !ok || v != 0 {
			t.Fatalf("%s = %v, %v; want present and 0", name, v, ok)
		}
	}
}

// POST /debug/explain must return the same k-NN answer as /search plus
// a per-shard trace tied to the request ID.
func TestExplainEndpoint(t *testing.T) {
	ts, ds, flat := newShardedTestServer(t)
	q := ds.Objects[11]
	body := map[string]interface{}{"x": q.X, "y": q.Y, "vec": q.Vec, "k": 5, "lambda": 0.5}

	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(body); err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/debug/explain", &buf)
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", "trace-me-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explain status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-Id"); got != "trace-me-1" {
		t.Fatalf("response request id %q", got)
	}

	var out struct {
		Results []struct {
			ID   uint32  `json:"id"`
			Dist float64 `json:"dist"`
		} `json:"results"`
		Trace struct {
			RequestID string  `json:"requestId"`
			Algo      string  `json:"algo"`
			K         int     `json:"k"`
			Lambda    float64 `json:"lambda"`
			Shards    []struct {
				Shard   int `json:"shard"`
				Objects int `json:"objects"`
				Stats   struct {
					VisitedObjects int64 `json:"visitedObjects"`
					InterPruned    int64 `json:"interPruned"`
					IntraPruned    int64 `json:"intraPruned"`
				} `json:"stats"`
				ReadEfficiency float64 `json:"readEfficiency"`
				DurationNanos  int64   `json:"durationNanos"`
			} `json:"shards"`
			Total struct {
				VisitedObjects int64   `json:"visitedObjects"`
				KthDistance    float64 `json:"kthDistance"`
			} `json:"total"`
			ReadEfficiency float64 `json:"readEfficiency"`
			DurationNanos  int64   `json:"durationNanos"`
		} `json:"trace"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}

	want := flat.Search(&q, 5, 0.5)
	if len(out.Results) != len(want) {
		t.Fatalf("%d results, want %d", len(out.Results), len(want))
	}
	for i := range want {
		if out.Results[i].ID != want[i].ID || out.Results[i].Dist != want[i].Dist {
			t.Fatalf("result %d = %+v, want %+v", i, out.Results[i], want[i])
		}
	}
	tr := &out.Trace
	if tr.RequestID != "trace-me-1" || tr.Algo != "cssi" || tr.K != 5 || tr.Lambda != 0.5 {
		t.Fatalf("trace header %+v", tr)
	}
	if len(tr.Shards) != 4 {
		t.Fatalf("%d spans, want 4", len(tr.Shards))
	}
	objects := 0
	visited := int64(0)
	for i, sp := range tr.Shards {
		if sp.Shard != i || sp.DurationNanos < 0 {
			t.Fatalf("span %d: %+v", i, sp)
		}
		objects += sp.Objects
		visited += sp.Stats.VisitedObjects
	}
	if objects != 600 {
		t.Fatalf("span objects sum %d, want 600", objects)
	}
	if visited != tr.Total.VisitedObjects {
		t.Fatalf("span visited sum %d != total %d", visited, tr.Total.VisitedObjects)
	}
	if len(want) > 0 && tr.Total.KthDistance != want[len(want)-1].Dist {
		t.Fatalf("kth %v, want %v", tr.Total.KthDistance, want[len(want)-1].Dist)
	}
	if tr.ReadEfficiency < 0 || tr.ReadEfficiency > 1 {
		t.Fatalf("read efficiency %v", tr.ReadEfficiency)
	}
	if tr.DurationNanos <= 0 {
		t.Fatalf("trace duration %d", tr.DurationNanos)
	}
}

// Requests without an inbound X-Request-Id get a generated one, echoed
// on the response.
func TestRequestIDGenerated(t *testing.T) {
	ts, _, _ := newShardedTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get("X-Request-Id") == "" {
		t.Fatal("no generated X-Request-Id on response")
	}
}
