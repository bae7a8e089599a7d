package server

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro"
)

// newRouteTestServer builds a server over an index large enough that
// Build trains the cluster router.
func newRouteTestServer(t *testing.T, route bool, target float64) (*httptest.Server, *cssi.Dataset) {
	t.Helper()
	ds, err := cssi.GenerateDataset(cssi.DatasetConfig{Kind: cssi.TwitterLike, Size: 1200, Dim: 16, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := cssi.Build(ds, cssi.Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if !idx.RouterTrained() {
		t.Fatal("fixture index did not train a router")
	}
	api := New(idx, ds.Model)
	api.SetRouteDefaults(route, target)
	ts := httptest.NewServer(api.Handler())
	t.Cleanup(ts.Close)
	return ts, ds
}

// TestSearchRouteField pins the request-level routing contract: route
// has no effect on an exact search (byte-identical body), and the
// routed approximate mode honors routeTarget.
func TestSearchRouteField(t *testing.T) {
	ts, ds := newRouteTestServer(t, false, 0)
	q := ds.Objects[11]
	base := map[string]interface{}{"x": q.X, "y": q.Y, "vec": q.Vec, "k": 10, "lambda": 0.5}
	unroutedStatus, unroutedBody := rawPost(t, ts.URL+"/v1/search", base)
	if unroutedStatus != http.StatusOK {
		t.Fatalf("unrouted: %d %s", unroutedStatus, unroutedBody)
	}
	routed := map[string]interface{}{"x": q.X, "y": q.Y, "vec": q.Vec, "k": 10, "lambda": 0.5, "route": true}
	routedStatus, routedBody := rawPost(t, ts.URL+"/v1/search", routed)
	if routedStatus != http.StatusOK {
		t.Fatalf("routed: %d %s", routedStatus, routedBody)
	}
	if !bytes.Equal(stripRequestID(t, unroutedBody), stripRequestID(t, routedBody)) {
		t.Fatalf("routed exact body differs from unrouted:\n%s\nvs\n%s", routedBody, unroutedBody)
	}
	approx := map[string]interface{}{
		"x": q.X, "y": q.Y, "vec": q.Vec, "k": 10, "lambda": 0.5,
		"approx": true, "route": true, "routeTarget": 0.9,
	}
	status, body := rawPost(t, ts.URL+"/v1/search", approx)
	if status != http.StatusOK {
		t.Fatalf("routed approx: %d %s", status, body)
	}
	if n := bytes.Count(body, []byte(`"id"`)); n != 10 {
		t.Fatalf("routed approx returned %d results, want 10:\n%s", n, body)
	}
}

// TestRouteServerDefaults pins SetRouteDefaults: with the server-wide
// default on, approximate requests that omit the route field are routed
// (visible in the clusters-routed metric), while an explicit
// "route": false opts a request out and an exact request routes nothing.
func TestRouteServerDefaults(t *testing.T) {
	ts, ds := newRouteTestServer(t, true, 0)
	q := ds.Objects[3]
	base := map[string]interface{}{"x": q.X, "y": q.Y, "vec": q.Vec, "k": 5, "lambda": 0.5, "approx": true}
	for i := 0; i < 3; i++ {
		if status, body := rawPost(t, ts.URL+"/v1/search", base); status != http.StatusOK {
			t.Fatalf("defaulted search: %d %s", status, body)
		}
	}
	if got := metricValue(t, scrapeMetrics(t, ts.URL), "cssi_search_clusters_routed_ratio_count"); got != 3 {
		t.Fatalf("clusters-routed count after 3 defaulted searches = %g, want 3", got)
	}
	optOut := map[string]interface{}{"x": q.X, "y": q.Y, "vec": q.Vec, "k": 5, "lambda": 0.5, "approx": true, "route": false}
	exact := map[string]interface{}{"x": q.X, "y": q.Y, "vec": q.Vec, "k": 5, "lambda": 0.5}
	for _, body := range []map[string]interface{}{optOut, exact} {
		if status, resp := rawPost(t, ts.URL+"/v1/search", body); status != http.StatusOK {
			t.Fatalf("unrouted search: %d %s", status, resp)
		}
	}
	if got := metricValue(t, scrapeMetrics(t, ts.URL), "cssi_search_clusters_routed_ratio_count"); got != 3 {
		t.Fatalf(`clusters-routed count after "route": false and an exact search = %g, want still 3`, got)
	}
}

// TestRouteMetricSilentWhenUnrouted asserts the routed-ratio histogram
// is exported (at zero) but never observed on a server that does not
// route.
func TestRouteMetricSilentWhenUnrouted(t *testing.T) {
	ts, ds := newRouteTestServer(t, false, 0)
	q := ds.Objects[8]
	base := map[string]interface{}{"x": q.X, "y": q.Y, "vec": q.Vec, "k": 5, "lambda": 0.5}
	for i := 0; i < 2; i++ {
		if status, body := rawPost(t, ts.URL+"/v1/search", base); status != http.StatusOK {
			t.Fatalf("search: %d %s", status, body)
		}
	}
	if got := metricValue(t, scrapeMetrics(t, ts.URL), "cssi_search_clusters_routed_ratio_count"); got != 0 {
		t.Fatalf("clusters-routed count on an unrouted server = %g, want 0", got)
	}
}

// TestSearchNonFiniteRejected pins the HTTP surface of the validation
// satellite: non-finite numerics cannot reach the engine. JSON has no
// NaN/Inf literals, so they arrive as out-of-range numbers — the decode
// layer must turn them into a 400, not a 500 or silent garbage.
func TestSearchNonFiniteRejected(t *testing.T) {
	ts, ds := newRouteTestServer(t, false, 0)
	q := ds.Objects[0]
	vec := `[`
	for i := range q.Vec {
		if i > 0 {
			vec += ","
		}
		vec += "0.1"
	}
	vec += `]`
	cases := []struct {
		name string
		body string
	}{
		{"lambda overflow", `{"x":0.5,"y":0.5,"vec":` + vec + `,"k":5,"lambda":1e999}`},
		{"coordinate overflow", `{"x":1e999,"y":0.5,"vec":` + vec + `,"k":5,"lambda":0.5}`},
		{"vec component overflow", `{"x":0.5,"y":0.5,"vec":[1e39` + strings.Repeat(",0.1", len(q.Vec)-1) + `],"k":5,"lambda":0.5}`},
		{"routeTarget overflow", `{"x":0.5,"y":0.5,"vec":` + vec + `,"k":5,"lambda":0.5,"approx":true,"route":true,"routeTarget":1e999}`},
	}
	for _, c := range cases {
		resp, err := http.Post(ts.URL+"/v1/search", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400 (body %s)", c.name, resp.StatusCode, b)
		}
		if !bytes.Contains(b, []byte(`"bad_request"`)) {
			t.Fatalf("%s: body lacks the bad_request envelope:\n%s", c.name, b)
		}
	}
}
