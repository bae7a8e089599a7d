package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro"
)

// rawPost posts a JSON body and returns (status, body bytes).
func rawPost(t *testing.T, url string, body interface{}) (int, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// stripRequestID blanks the meta block's per-request requestId so two
// responses to identical queries compare byte-identical (every request
// gets a fresh ID; everything else in the body must match exactly).
func stripRequestID(t *testing.T, body []byte) []byte {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("response is not a JSON object: %v\n%s", err, body)
	}
	raw, ok := m["meta"]
	if !ok {
		return body
	}
	var meta map[string]interface{}
	if err := json.Unmarshal(raw, &meta); err != nil {
		t.Fatalf("meta is not a JSON object: %v\n%s", err, body)
	}
	if _, ok := meta["requestId"]; !ok {
		t.Fatalf("meta block has no requestId:\n%s", body)
	}
	meta["requestId"] = ""
	normalized, err := json.Marshal(meta)
	if err != nil {
		t.Fatal(err)
	}
	m["meta"] = normalized
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// errorEnvelope mirrors the documented error body shape.
type errorEnvelope struct {
	Error struct {
		Code      string `json:"code"`
		Message   string `json:"message"`
		RequestID string `json:"request_id"`
	} `json:"error"`
}

// TestErrorEnvelope asserts every non-2xx response — handler errors,
// unknown routes, and method mismatches alike — carries the one JSON
// error envelope with a code, a message, and the request ID.
func TestErrorEnvelope(t *testing.T) {
	ts, ds := newTestServer(t)
	q := ds.Objects[0]
	check := func(name string, status, wantStatus int, wantCode string, body []byte) {
		t.Helper()
		if status != wantStatus {
			t.Fatalf("%s: status %d, want %d (body %s)", name, status, wantStatus, body)
		}
		var env errorEnvelope
		if err := json.Unmarshal(body, &env); err != nil {
			t.Fatalf("%s: body is not the error envelope: %v\n%s", name, err, body)
		}
		if env.Error.Code != wantCode {
			t.Fatalf("%s: code %q, want %q", name, env.Error.Code, wantCode)
		}
		if env.Error.Message == "" {
			t.Fatalf("%s: empty error message", name)
		}
		if env.Error.RequestID == "" {
			t.Fatalf("%s: empty request_id", name)
		}
	}

	// Handler-raised 400: bad lambda.
	status, body := rawPost(t, ts.URL+"/v1/search",
		map[string]interface{}{"x": q.X, "y": q.Y, "vec": q.Vec, "k": 5, "lambda": 7.0})
	check("bad lambda", status, http.StatusBadRequest, "bad_request", body)

	// Router-raised 404: unknown route.
	status, body = rawPost(t, ts.URL+"/v1/nope", map[string]interface{}{})
	check("unknown route", status, http.StatusNotFound, "not_found", body)

	// The unversioned aliases are gone: /search is an unknown route too.
	status, body = rawPost(t, ts.URL+"/search",
		map[string]interface{}{"x": q.X, "y": q.Y, "vec": q.Vec, "k": 5, "lambda": 0.5})
	check("unversioned route", status, http.StatusNotFound, "not_found", body)

	// Router-raised 405: wrong method on a known route.
	resp, err := http.Get(ts.URL + "/v1/search")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	check("method mismatch", resp.StatusCode, http.StatusMethodNotAllowed, "method_not_allowed", b)

	// Handler-raised 404: deleting an unknown object.
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/objects?id=999999999", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	check("delete unknown", resp.StatusCode, http.StatusNotFound, "not_found", b)

	// The inbound X-Request-Id must round-trip into the envelope.
	buf, _ := json.Marshal(map[string]interface{}{"x": q.X, "y": q.Y, "vec": q.Vec, "k": 5, "lambda": 7.0})
	req, err = http.NewRequest(http.MethodPost, ts.URL+"/v1/search", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-Id", "env-test-1")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var env errorEnvelope
	if err := json.Unmarshal(b, &env); err != nil {
		t.Fatal(err)
	}
	if env.Error.RequestID != "env-test-1" {
		t.Fatalf("request_id %q, want env-test-1", env.Error.RequestID)
	}
}

// TestClustersOrderedMetric asserts the ordering-phase histogram shows
// up in /metrics and accumulates observations after searches.
func TestClustersOrderedMetric(t *testing.T) {
	ds, err := cssi.GenerateDataset(cssi.DatasetConfig{Kind: cssi.TwitterLike, Size: 500, Dim: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := cssi.Build(ds, cssi.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(idx, ds.Model).Handler())
	t.Cleanup(ts.Close)

	q := ds.Objects[2]
	for i := 0; i < 3; i++ {
		status, body := rawPost(t, ts.URL+"/v1/search",
			map[string]interface{}{"x": q.X, "y": q.Y, "vec": q.Vec, "k": 5, "lambda": 0.5})
		if status != http.StatusOK {
			t.Fatalf("search: %d %s", status, body)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(b)
	if !bytes.Contains(b, []byte("cssi_search_clusters_ordered_ratio_count 3")) {
		t.Fatalf("clusters-ordered histogram missing or not at 3 observations:\n%s", grepMetric(text, "cssi_search_clusters_ordered_ratio"))
	}
}

// grepMetric extracts the lines of one metric family for error output.
func grepMetric(text, name string) string {
	var out []byte
	for _, line := range bytes.Split([]byte(text), []byte("\n")) {
		if bytes.Contains(line, []byte(name)) {
			out = append(out, line...)
			out = append(out, '\n')
		}
	}
	return string(out)
}

// TestAnchorSignals follows the anchor bound through the operator
// surfaces: searches feed the anchor-pruned histogram, an insert shows
// up as one unanchored row in /stats and in the per-shard gauge, and a
// rebuild anchors it again.
func TestAnchorSignals(t *testing.T) {
	ts, ds := newTestServer(t)
	q := ds.Objects[4]
	if status, body := rawPost(t, ts.URL+"/v1/search",
		map[string]interface{}{"x": q.X, "y": q.Y, "vec": q.Vec, "k": 5, "lambda": 0.5}); status != http.StatusOK {
		t.Fatalf("search: %d %s", status, body)
	}
	signals := func(ctx string, wantUnanchored int) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/metrics")
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if !bytes.Contains(b, []byte("cssi_search_anchor_pruned_ratio_count 1\n")) {
			t.Fatalf("%s: anchor-pruned histogram not at 1 observation:\n%s", ctx, grepMetric(string(b), "cssi_search_anchor_pruned_ratio_count"))
		}
		if want := fmt.Sprintf("cssi_shard_unanchored_rows{shard=\"0\"} %d\n", wantUnanchored); !bytes.Contains(b, []byte(want)) {
			t.Fatalf("%s: want %q:\n%s", ctx, want, grepMetric(string(b), "cssi_shard_unanchored_rows"))
		}
		resp, err = http.Get(ts.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var stats struct {
			Unanchored int `json:"unanchoredRows"`
			PerShard   []struct {
				Unanchored int `json:"unanchoredRows"`
			} `json:"perShard"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
			t.Fatal(err)
		}
		if stats.Unanchored != wantUnanchored || len(stats.PerShard) != 1 || stats.PerShard[0].Unanchored != wantUnanchored {
			t.Fatalf("%s: stats %+v, want %d unanchored rows", ctx, stats, wantUnanchored)
		}
	}
	signals("built", 0)
	if status, body := rawPost(t, ts.URL+"/v1/objects",
		map[string]interface{}{"id": 90001, "x": 0.2, "y": 0.3, "vec": ds.Objects[0].Vec}); status != http.StatusCreated {
		t.Fatalf("insert: %d %s", status, body)
	}
	signals("inserted", 1)
	if status, body := rawPost(t, ts.URL+"/v1/rebuild?wait=1", map[string]interface{}{}); status != http.StatusOK {
		t.Fatalf("rebuild: %d %s", status, body)
	}
	signals("rebuilt", 0)
}
