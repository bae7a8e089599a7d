package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro"
)

// newShardedTestServer serves a 4-shard index; the returned flat index
// is an identically built unsharded reference.
func newShardedTestServer(t *testing.T) (*httptest.Server, *cssi.Dataset, *cssi.Index) {
	t.Helper()
	ds, err := cssi.GenerateDataset(cssi.DatasetConfig{Kind: cssi.TwitterLike, Size: 600, Dim: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	flat, err := cssi.Build(ds, cssi.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := cssi.BuildSharded(ds, 4, cssi.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewSharded(sharded, ds.Model).Handler())
	t.Cleanup(ts.Close)
	return ts, ds, flat
}

// A sharded server must answer exact searches bit-identically to an
// unsharded index, and report per-shard stats.
func TestShardedServerSearchAndStats(t *testing.T) {
	ts, ds, flat := newShardedTestServer(t)
	q := ds.Objects[11]
	resp, out := postJSON(t, ts.URL+"/v1/search", map[string]interface{}{
		"x": q.X, "y": q.Y, "vec": q.Vec, "k": 5, "lambda": 0.5,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, out)
	}
	var results []struct {
		ID   uint32  `json:"id"`
		Dist float64 `json:"dist"`
	}
	if err := json.Unmarshal(out["results"], &results); err != nil {
		t.Fatal(err)
	}
	want, err := flat.Do(cssi.SearchRequest{Query: &q, K: 5, Lambda: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(want) {
		t.Fatalf("%d results, want %d", len(results), len(want))
	}
	for i := range want {
		if results[i].ID != want[i].ID || results[i].Dist != want[i].Dist {
			t.Fatalf("result %d = %+v, want %+v", i, results[i], want[i])
		}
	}

	sresp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var stats struct {
		Objects   int                      `json:"objects"`
		Shards    int                      `json:"shards"`
		HeapBytes float64                  `json:"heapBytes"`
		PerShard  []map[string]interface{} `json:"perShard"`
	}
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Objects != 600 || stats.Shards != 4 || len(stats.PerShard) != 4 {
		t.Fatalf("stats = %+v", stats)
	}
	// The heap ledger: per structure on every shard, summed on top.
	var heap float64
	for i, sh := range stats.PerShard {
		ledger, _ := sh["heap"].(map[string]interface{})
		if v, _ := ledger["vectors"].(float64); v < 100*16*4 {
			t.Fatalf("shard %d: heap ledger %v holds no vector arena", i, sh["heap"])
		}
		heap += sh["heapBytes"].(float64)
	}
	if stats.HeapBytes != heap || heap == 0 {
		t.Fatalf("heapBytes %v, shards sum to %v", stats.HeapBytes, heap)
	}
}

// Mutations routed through the sharded server must land on the right
// shard and stay readable.
func TestShardedServerMutations(t *testing.T) {
	ts, ds, _ := newShardedTestServer(t)
	o := ds.Objects[0]
	resp, out := postJSON(t, ts.URL+"/v1/objects", map[string]interface{}{
		"id": 990001, "x": o.X, "y": o.Y, "vec": o.Vec,
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("insert status %d: %v", resp.StatusCode, out)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/objects?id=990001", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("delete status %d", dresp.StatusCode)
	}
}

func scrapeMetrics(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// metricValue extracts one sample value from exposition text.
func metricValue(t *testing.T, text, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, series+" ") {
			var v float64
			if _, err := fmt.Sscanf(line[len(series)+1:], "%g", &v); err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("series %q not found in:\n%s", series, text)
	return 0
}

// /metrics must expose per-endpoint counters, the search latency
// histogram, and per-shard gauges — and they must move when traffic
// flows.
func TestMetricsEndpoint(t *testing.T) {
	ts, ds, _ := newShardedTestServer(t)
	q := ds.Objects[5]

	// One good search, one bad (unknown field -> 400 on decode).
	if resp, _ := postJSON(t, ts.URL+"/v1/search", map[string]interface{}{
		"x": q.X, "y": q.Y, "vec": q.Vec, "k": 3, "lambda": 0.5,
	}); resp.StatusCode != http.StatusOK {
		t.Fatalf("search status %d", resp.StatusCode)
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/search", map[string]interface{}{
		"bogus": true,
	}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad search status %d", resp.StatusCode)
	}

	text := scrapeMetrics(t, ts.URL)
	if got := metricValue(t, text, `cssi_http_requests_total{endpoint="search"}`); got != 2 {
		t.Fatalf("search requests = %v, want 2", got)
	}
	if got := metricValue(t, text, `cssi_http_request_errors_total{endpoint="search"}`); got != 1 {
		t.Fatalf("search errors = %v, want 1", got)
	}
	if got := metricValue(t, text, "cssi_search_latency_seconds_count"); got != 2 {
		t.Fatalf("latency count = %v, want 2", got)
	}
	if got := metricValue(t, text, "cssi_search_latency_seconds_sum"); got <= 0 {
		t.Fatalf("latency sum = %v, want > 0", got)
	}
	if got := metricValue(t, text, `cssi_search_latency_seconds_bucket{le="+Inf"}`); got != 2 {
		t.Fatalf("+Inf bucket = %v, want 2", got)
	}
	// Bucket series must be cumulative (monotone non-decreasing).
	prev := -1.0
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "cssi_search_latency_seconds_bucket{") {
			parts := strings.Fields(line)
			var v float64
			fmt.Sscanf(parts[len(parts)-1], "%g", &v)
			if v < prev {
				t.Fatalf("histogram not cumulative at %q", line)
			}
			prev = v
		}
	}
	// Per-shard gauges: 4 shards, object counts summing to the corpus.
	sum := 0.0
	for i := 0; i < 4; i++ {
		sum += metricValue(t, text, fmt.Sprintf(`cssi_shard_objects{shard="%d"}`, i))
		if age := metricValue(t, text, fmt.Sprintf(`cssi_shard_snapshot_age_seconds{shard="%d"}`, i)); age < 0 {
			t.Fatalf("shard %d snapshot age %v", i, age)
		}
	}
	if sum != 600 {
		t.Fatalf("shard objects sum %v, want 600", sum)
	}
	// A write shrinks the written shard's snapshot age on the next scrape.
	var buf bytes.Buffer
	json.NewEncoder(&buf).Encode(map[string]interface{}{"id": 990002, "x": 0.5, "y": 0.5, "vec": ds.Objects[1].Vec})
	if resp, err := http.Post(ts.URL+"/v1/objects", "application/json", &buf); err != nil || resp.StatusCode != http.StatusCreated {
		t.Fatalf("insert: %v %v", err, resp.Status)
	}
	text = scrapeMetrics(t, ts.URL)
	if got := metricValue(t, text, `cssi_http_requests_total{endpoint="insert"}`); got < 1 {
		t.Fatalf("insert requests = %v", got)
	}
}
