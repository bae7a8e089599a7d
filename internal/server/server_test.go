package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro"
)

func newTestServer(t *testing.T) (*httptest.Server, *cssi.Dataset) {
	t.Helper()
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
	return ts, ds
}

func postJSON(t *testing.T, url string, body interface{}) (*http.Response, map[string]json.RawMessage) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	var out map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func TestHealthAndStats(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", err, resp.Status)
	}
	resp.Body.Close()
	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Objects        int `json:"objects"`
		HybridClusters int `json:"hybridClusters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Objects != 500 || stats.HybridClusters == 0 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestSearchByVector(t *testing.T) {
	ts, ds := newTestServer(t)
	q := ds.Objects[7]
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
	if len(results) != 5 {
		t.Fatalf("got %d results", len(results))
	}
	if results[0].ID != q.ID || results[0].Dist != 0 {
		t.Fatalf("self-query top hit %+v", results[0])
	}
}

func TestSearchByText(t *testing.T) {
	ts, ds := newTestServer(t)
	resp, out := postJSON(t, ts.URL+"/v1/search", map[string]interface{}{
		"x": 0.5, "y": 0.5, "text": ds.Objects[0].Text, "k": 3, "lambda": 0.0,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, out)
	}
	var results []struct {
		ID uint32 `json:"id"`
	}
	if err := json.Unmarshal(out["results"], &results); err != nil {
		t.Fatal(err)
	}
	if results[0].ID != ds.Objects[0].ID {
		t.Fatalf("semantic text query should hit source object, got %d", results[0].ID)
	}
}

func TestSearchApproxFlag(t *testing.T) {
	ts, ds := newTestServer(t)
	q := ds.Objects[9]
	resp, _ := postJSON(t, ts.URL+"/v1/search", map[string]interface{}{
		"x": q.X, "y": q.Y, "vec": q.Vec, "k": 5, "lambda": 0.5, "approx": true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestSearchValidation(t *testing.T) {
	ts, _ := newTestServer(t)
	// No vec and no text.
	resp, _ := postJSON(t, ts.URL+"/v1/search", map[string]interface{}{"x": 0.1, "y": 0.1, "k": 3, "lambda": 0.5})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing vec/text: status %d", resp.StatusCode)
	}
	// Bad lambda.
	resp, _ = postJSON(t, ts.URL+"/v1/search", map[string]interface{}{"x": 0.1, "y": 0.1, "text": "a b c", "lambda": 3.0})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad lambda: status %d", resp.StatusCode)
	}
	// Unknown fields rejected.
	r, err := http.Post(ts.URL+"/v1/search", "application/json", bytes.NewReader([]byte(`{"bogus":1}`)))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: status %d", r.StatusCode)
	}
}

func TestRangeEndpoint(t *testing.T) {
	ts, ds := newTestServer(t)
	q := ds.Objects[3]
	resp, out := postJSON(t, ts.URL+"/v1/range", map[string]interface{}{
		"x": q.X, "y": q.Y, "vec": q.Vec, "lambda": 0.5, "radius": 0.1,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, out)
	}
	var results []struct {
		Dist float64 `json:"dist"`
	}
	if err := json.Unmarshal(out["results"], &results); err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Dist > 0.1 {
			t.Fatalf("result outside radius: %v", r.Dist)
		}
	}
}

func TestBoxEndpoint(t *testing.T) {
	ts, ds := newTestServer(t)
	q := ds.Objects[3]
	resp, out := postJSON(t, ts.URL+"/v1/box", map[string]interface{}{
		"x": q.X, "y": q.Y, "vec": q.Vec, "k": 5,
		"loX": 0.0, "loY": 0.0, "hiX": 1.0, "hiY": 1.0,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, out)
	}
	// Inverted window rejected.
	resp, _ = postJSON(t, ts.URL+"/v1/box", map[string]interface{}{
		"x": q.X, "y": q.Y, "vec": q.Vec, "loX": 0.9, "hiX": 0.1, "hiY": 1.0,
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("inverted window: status %d", resp.StatusCode)
	}
}

func TestObjectLifecycle(t *testing.T) {
	ts, ds := newTestServer(t)
	// Insert.
	resp, _ := postJSON(t, ts.URL+"/v1/objects", map[string]interface{}{
		"id": 90001, "x": 0.2, "y": 0.3, "vec": ds.Objects[0].Vec,
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("insert status %d", resp.StatusCode)
	}
	// Duplicate insert conflicts.
	resp, _ = postJSON(t, ts.URL+"/v1/objects", map[string]interface{}{
		"id": 90001, "x": 0.2, "y": 0.3, "vec": ds.Objects[0].Vec,
	})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("dup insert status %d", resp.StatusCode)
	}
	// Update.
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/objects", bytes.NewReader(mustJSON(map[string]interface{}{
		"id": 90001, "x": 0.8, "y": 0.9, "vec": ds.Objects[1].Vec,
	})))
	req.Header.Set("Content-Type", "application/json")
	r2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("update status %d", r2.StatusCode)
	}
	// Delete.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/objects?id=90001", nil)
	r3, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r3.Body.Close()
	if r3.StatusCode != http.StatusOK {
		t.Fatalf("delete status %d", r3.StatusCode)
	}
	// Delete again: not found.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/objects?id=90001", nil)
	r4, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r4.Body.Close()
	if r4.StatusCode != http.StatusNotFound {
		t.Fatalf("re-delete status %d", r4.StatusCode)
	}
	// Bad id.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/objects?id=abc", nil)
	r5, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r5.Body.Close()
	if r5.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad id status %d", r5.StatusCode)
	}
}

// POST /rebuild?wait=1 rebuilds in the background and, with wait,
// reports completion; searches issued before, during, and after must
// keep succeeding against consistent snapshots.
func TestRebuildEndpoint(t *testing.T) {
	ts, ds := newTestServer(t)
	// Mutate first so the rebuild has deletions to compact away.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/objects?id="+
		fmt.Sprint(ds.Objects[0].ID), nil)
	r0, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r0.Body.Close()
	if r0.StatusCode != http.StatusOK {
		t.Fatalf("pre-rebuild delete status %d", r0.StatusCode)
	}

	resp, body := postJSON(t, ts.URL+"/v1/rebuild?wait=1", map[string]interface{}{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rebuild status %d", resp.StatusCode)
	}
	var status string
	if err := json.Unmarshal(body["status"], &status); err != nil || status != "rebuilt" {
		t.Fatalf("rebuild response %v (err %v)", body, err)
	}
	var n int
	if err := json.Unmarshal(body["objects"], &n); err != nil || n != ds.Len()-1 {
		t.Fatalf("post-rebuild object count %d, want %d", n, ds.Len()-1)
	}

	// Searches on the rebuilt index still work.
	q := ds.Objects[1]
	resp, _ = postJSON(t, ts.URL+"/v1/search", map[string]interface{}{
		"x": q.X, "y": q.Y, "vec": q.Vec, "k": 3, "lambda": 0.5,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-rebuild search status %d", resp.StatusCode)
	}

	// Without wait the endpoint acknowledges asynchronously.
	resp, body = postJSON(t, ts.URL+"/v1/rebuild", map[string]interface{}{})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async rebuild status %d", resp.StatusCode)
	}
	if err := json.Unmarshal(body["status"], &status); err != nil || status != "rebuilding" {
		t.Fatalf("async rebuild response %v (err %v)", body, err)
	}
}

// Concurrent reads and writes must not race (run with -race).
func TestConcurrentReadWrite(t *testing.T) {
	ts, ds := newTestServer(t)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				q := ds.Objects[(g*29+i)%ds.Len()]
				resp, _ := postJSON(t, ts.URL+"/v1/search", map[string]interface{}{
					"x": q.X, "y": q.Y, "vec": q.Vec, "k": 3, "lambda": 0.5,
				})
				if resp.StatusCode != http.StatusOK {
					t.Errorf("search status %d", resp.StatusCode)
					return
				}
			}
		}(g)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				id := 100000 + g*100 + i
				resp, _ := postJSON(t, ts.URL+"/v1/objects", map[string]interface{}{
					"id": id, "x": 0.5, "y": 0.5, "vec": ds.Objects[0].Vec,
				})
				if resp.StatusCode != http.StatusCreated {
					t.Errorf("insert status %d", resp.StatusCode)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func mustJSON(v interface{}) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("mustJSON: %v", err))
	}
	return b
}

func TestKeywordSearchEndpoint(t *testing.T) {
	ts, ds := newTestServer(t)
	word := strings.Fields(ds.Objects[12].Text)[0]
	q := ds.Objects[3]
	resp, out := postJSON(t, ts.URL+"/v1/keyword-search", map[string]interface{}{
		"x": q.X, "y": q.Y, "vec": q.Vec, "k": 5, "lambda": 0.5,
		"keywords": []string{word},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, out)
	}
	var results []struct {
		ID   uint32 `json:"id"`
		Text string `json:"text"`
	}
	if err := json.Unmarshal(out["results"], &results); err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("no results for an occurring keyword")
	}
	for _, r := range results {
		if !strings.Contains(" "+r.Text+" ", " "+word+" ") {
			t.Fatalf("result %d lacks keyword %q: %q", r.ID, word, r.Text)
		}
	}
	// Missing keywords rejected.
	resp, _ = postJSON(t, ts.URL+"/v1/keyword-search", map[string]interface{}{
		"x": q.X, "y": q.Y, "vec": q.Vec, "k": 5, "lambda": 0.5,
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing keywords: status %d", resp.StatusCode)
	}
	// Stop-word-only keywords rejected.
	resp, _ = postJSON(t, ts.URL+"/v1/keyword-search", map[string]interface{}{
		"x": q.X, "y": q.Y, "vec": q.Vec, "k": 5, "lambda": 0.5,
		"keywords": []string{"the"},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("stop-word keywords: status %d", resp.StatusCode)
	}
}

// NewSharded builds the keyword filter, so only an index swapped in
// behind the server's back can lack it; the request is still answered
// 400 with the typed error's text, not a panic or a stop-word message.
func TestKeywordSearchWithoutFilterIs400(t *testing.T) {
	ds, err := cssi.GenerateDataset(cssi.DatasetConfig{Kind: cssi.TwitterLike, Size: 300, Dim: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	build := func() *cssi.Index {
		idx, err := cssi.Build(ds, cssi.Options{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		return idx
	}
	srv := New(build(), ds.Model)
	srv.idx = cssi.ShardedFrom(build())
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	q := ds.Objects[3]
	resp, out := postJSON(t, ts.URL+"/v1/keyword-search", map[string]interface{}{
		"x": q.X, "y": q.Y, "vec": q.Vec, "k": 5, "lambda": 0.5,
		"keywords": []string{strings.Fields(ds.Objects[12].Text)[0]},
	})
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(out["error"]), "EnableKeywordFilter") {
		t.Fatalf("status %d, body %s", resp.StatusCode, out)
	}
}

func TestBatchEndpoint(t *testing.T) {
	ts, ds := newTestServer(t)
	queries := make([]map[string]interface{}, 3)
	for i := range queries {
		q := ds.Objects[i*7]
		queries[i] = map[string]interface{}{"x": q.X, "y": q.Y, "vec": q.Vec}
	}
	resp, out := postJSON(t, ts.URL+"/v1/search/batch", map[string]interface{}{
		"queries": queries, "k": 4, "lambda": 0.5, "workers": 2,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, out)
	}
	var results [][]struct {
		ID   uint32  `json:"id"`
		Dist float64 `json:"dist"`
	}
	if err := json.Unmarshal(out["results"], &results); err != nil {
		t.Fatal(err)
	}
	if len(results) != len(queries) {
		t.Fatalf("got %d result lists for %d queries", len(results), len(queries))
	}
	// Each batch entry must match the single-query endpoint exactly.
	for i, q := range queries {
		q["k"] = 4
		q["lambda"] = 0.5
		single, sout := postJSON(t, ts.URL+"/v1/search", q)
		if single.StatusCode != http.StatusOK {
			t.Fatalf("single status %d", single.StatusCode)
		}
		var want []struct {
			ID   uint32  `json:"id"`
			Dist float64 `json:"dist"`
		}
		if err := json.Unmarshal(sout["results"], &want); err != nil {
			t.Fatal(err)
		}
		if len(results[i]) != len(want) {
			t.Fatalf("query %d: %d vs %d results", i, len(results[i]), len(want))
		}
		for j := range want {
			if results[i][j].ID != want[j].ID || results[i][j].Dist != want[j].Dist {
				t.Fatalf("query %d result %d: batch %+v vs single %+v", i, j, results[i][j], want[j])
			}
		}
	}
}

func TestBatchEndpointValidation(t *testing.T) {
	ts, ds := newTestServer(t)
	// Empty batch rejected.
	resp, _ := postJSON(t, ts.URL+"/v1/search/batch", map[string]interface{}{
		"queries": []map[string]interface{}{}, "k": 3, "lambda": 0.5,
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty queries: status %d", resp.StatusCode)
	}
	// A bad query inside the batch rejected.
	resp, _ = postJSON(t, ts.URL+"/v1/search/batch", map[string]interface{}{
		"queries": []map[string]interface{}{
			{"x": 0.1, "y": 0.2, "vec": ds.Objects[0].Vec},
			{"x": 0.1, "y": 0.2},
		},
		"k": 3, "lambda": 0.5,
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad inner query: status %d", resp.StatusCode)
	}
	// Bad lambda rejected.
	resp, _ = postJSON(t, ts.URL+"/v1/search/batch", map[string]interface{}{
		"queries": []map[string]interface{}{{"x": 0.1, "y": 0.2, "vec": ds.Objects[0].Vec}},
		"k":       3, "lambda": 2.0,
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad lambda: status %d", resp.StatusCode)
	}
	// A wrong-dimension vector anywhere in the batch is a 400, never a
	// panic in a search worker (which would kill the server process).
	resp, _ = postJSON(t, ts.URL+"/v1/search/batch", map[string]interface{}{
		"queries": []map[string]interface{}{
			{"x": 0.1, "y": 0.2, "vec": ds.Objects[0].Vec},
			{"x": 0.3, "y": 0.4, "vec": []float32{1, 2, 3}},
		},
		"k": 3, "lambda": 0.5,
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("wrong-dim vec: status %d", resp.StatusCode)
	}
	// An oversized batch is rejected outright.
	huge := make([]map[string]interface{}, maxBatchQueries+1)
	for i := range huge {
		huge[i] = map[string]interface{}{"x": 0.1, "y": 0.2, "vec": ds.Objects[0].Vec}
	}
	resp, _ = postJSON(t, ts.URL+"/v1/search/batch", map[string]interface{}{
		"queries": huge, "k": 3, "lambda": 0.5,
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized batch: status %d", resp.StatusCode)
	}
	// Absurd client-side worker counts are clamped, not honored: the
	// request still succeeds with bounded parallelism.
	resp, _ = postJSON(t, ts.URL+"/v1/search/batch", map[string]interface{}{
		"queries": []map[string]interface{}{{"x": 0.1, "y": 0.2, "vec": ds.Objects[0].Vec}},
		"k":       3, "lambda": 0.5, "workers": 1 << 20,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("clamped workers: status %d", resp.StatusCode)
	}
}

func TestSearchRejectsWrongDimVector(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, out := postJSON(t, ts.URL+"/v1/search", map[string]interface{}{
		"x": 0.1, "y": 0.2, "vec": []float32{1, 2, 3}, "k": 3, "lambda": 0.5,
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d: %v", resp.StatusCode, out)
	}
}
