package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro"
)

const codecDim = 16

// newCodecServer builds a small served index; two calls build twins
// that answer identically while they see the same requests.
func newCodecServer(tb testing.TB) (*Server, *cssi.Dataset) {
	tb.Helper()
	ds, err := cssi.GenerateDataset(cssi.DatasetConfig{Kind: cssi.TwitterLike, Size: 300, Dim: codecDim, Seed: 3})
	if err != nil {
		tb.Fatal(err)
	}
	idx, err := cssi.Build(ds, cssi.Options{Seed: 3})
	if err != nil {
		tb.Fatal(err)
	}
	return New(idx, ds.Model), ds
}

// stdlibOnly serves h the way the route did before the codec: the body
// decoded by encoding/json alone, behind the same middleware.
func stdlibOnly[T any, P interface {
	*T
	wireRequest
}](s *Server, h func(http.ResponseWriter, *http.Request, P)) http.Handler {
	return s.withRequestID(withErrorEnvelope(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req T
		if err := decodeStd(r.Body, &req); err != nil {
			writeError(w, r, http.StatusBadRequest, "invalid JSON: "+err.Error())
			return
		}
		h(w, r, &req)
	})))
}

// serveBody runs one request through h under a fixed request ID, so
// two handlers' replies compare byte for byte.
func serveBody(h http.Handler, method, path string, body []byte) (int, string) {
	r := httptest.NewRequest(method, path, bytes.NewReader(body))
	r.Header.Set("X-Request-Id", "00f067aa0ba902b7")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	return w.Code, w.Body.String()
}

// scanBody runs the scanner alone over body.
func scanBody(body []byte, dim int, v wireRequest) bool {
	sc := scanner{b: body, dim: dim}
	return sc.body(v)
}

// vecJSON renders n floats as a JSON array.
func vecJSON(n int) string {
	parts := make([]string, n)
	for i := range parts {
		parts[i] = fmt.Sprintf("%.4g", 0.05*float64(i)-0.3)
	}
	return "[" + strings.Join(parts, ",") + "]"
}

// decodeSeeds names the edges of the strict subset: each is either
// inside it, or must reach encoding/json and get its verdict. %s is a
// vector of the index's dimension.
var decodeSeeds = []string{
	`{"x":0.4,"y":0.6,"vec":%s,"k":5,"lambda":0.5}`,
	`{"x":0.4,"y":0.6,"text":"wb wc wd","k":5,"lambda":0.5}`,
	" {\n\t\"x\" : 0.4 ,\r\n \"y\":0.6, \"vec\" : %s , \"k\": 5,\"lambda\":0.5 }\n ",
	`{"x":0.4,"y":0.6,"vec":%s,"k":5,"lambda":0.5,"radius":0.2,"approx":true,"route":false,"routeTarget":0.8,` +
		`"keywords":["wb","wc"],"loX":0,"loY":0,"hiX":1,"hiY":1,"deadlineMs":50,"cache":"off"}`,
	`{}`,
	`{"X":0.4,"Y":0.6,"VEC":%s,"K":5,"Lambda":0.5}`,                      // case-folded keys
	`{"x":0.1,"x":0.4,"y":0.6,"vec":%s,"lambda":0.5}`,                    // duplicate key
	`{"x":0.4,"y":0.6,"vec":[1],"vec":%s,"lambda":0.5}`,                  // duplicate slice
	`{"x":0.4,"y":0.6,"vec":%s,"text":"café wb wc wd","lambda":0.5}`,     // é
	`{"x":0.4,"y":0.6,"vec":%s,"text":"\ud83d\ude00 wb","lambda":1}`,     // escaped surrogate pair
	`{"x":0.4,"y":0.6,"vec":%s,"text":"😀 wb","lambda":1}`,                // the same rune, raw
	`{"x":0.4,"y":0.6,"vec":%s,"text":"\ud83d wb","lambda":1}`,           // lone surrogate
	"{\"x\":0.4,\"y\":0.6,\"vec\":%s,\"text\":\"\xff\xfe\",\"k\":1}",     // invalid UTF-8
	"{\"x\":0.4,\"y\":0.6,\"vec\":%s,\"text\":\"a\x01b\",\"k\":1}",       // raw control byte
	`{"x":0.4,"y":0.6,"vec":%s,"text":"a\nb\u0041\/","cache":"o\u006e"}`, // escapes
	`{"x":0.4,"y":0.6,"vec":null,"lambda":0.5}`,
	`{"x":0.4,"y":0.6,"vec":[],"lambda":0.5}`,
	`{"x":0.4,"y":0.6,"vec":[ ],"keywords":[],"lambda":0.5}`,
	`{"x":0.4,"y":0.6,"vec":[1,2,],"lambda":0.5}`,
	`{"x":0.4,"y":0.6,"vec":%s,"lambda":0.5,}`,
	`{"x":1e400,"y":0.6,"vec":%s}`,
	`{"x":0.4,"y":0.6,"vec":[1e39,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]}`, // float32 overflow
	`{"x":1e-400,"y":-0,"vec":[1e-50,-0.0,1E+2,0e0,0,0,0,0,0,0,0,0,0,0,0,0],"lambda":1}`,
	`{"x":01,"y":0.6,"vec":%s}`,
	`{"x":-,"y":0.6,"vec":%s}`,
	`{"x":0x10,"y":0.6,"vec":%s}`,
	`{"x":Infinity,"y":0.6,"vec":%s}`,
	`{"x":NaN,"y":0.6,"vec":%s}`,
	`{"x":1_0,"y":0.6,"vec":%s}`,
	`{"x":.5,"y":5.,"vec":%s}`,
	`{"x":1e,"y":+1,"vec":%s}`,
	`{"x":0.4,"y":0.6,"vec":%s,"k":1.0}`,
	`{"x":0.4,"y":0.6,"vec":%s,"k":1e1}`,
	`{"x":0.4,"y":0.6,"vec":%s,"k":-0}`,
	`{"x":0.4,"y":0.6,"vec":%s,"k":"5"}`,
	`{"x":0.4,"y":0.6,"vec":%s,"k":99999999999999999999}`,
	`{"x":0.4,"y":0.6,"vec":%s,"deadlineMs":-1}`,
	`{"x":0.4,"y":0.6,"vec":%s,"deadlineMs":9223372036854775808}`,
	`{"x":0.4,"y":0.6,"vec":%s,"route":null}`,
	`{"x":0.4,"y":0.6,"vec":%s,"route":"yes"}`,
	`{"x":0.4,"y":0.6,"vec":%s,"approx":truex}`,
	`{"x":0.4,"y":0.6,"vec":%s,"lambda":7}`,
	`{"x":0.4,"y":0.6,"vec":%s,"bogus":1}`,             // unknown field
	`{"x":0.4,"y":0.6,"vec":%s,"lambda":0.5} trailing`, // garbage after the closing brace
	`{"x":0.4,"y":0.6,"vec":%s,"lambda":0.5}{"x":1}`,
	`{"x":0.4,"y":0.6,"vec":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`,
	`{"x":0.4,"y":0.6,"vec":%s`,
	"\ufeff" + `{"x":0.4,"y":0.6,"vec":%s}`,
	``,
	`null`,
	`[]`,
	`"x"`,
}

// fuzzDecode is the differential check of one request type, with
// encoding/json as the oracle: (a) a body the scanner accepts decodes
// to the same struct under encoding/json; (b) the served route answers
// every body — status and reply — exactly as its stdlib-only twin.
func fuzzDecode[T any, P interface {
	*T
	wireRequest
}](f *testing.F, method, path string, vectors int, seeds []string, route func(*Server) func(http.ResponseWriter, *http.Request, P)) {
	for _, s := range seeds {
		f.Add([]byte(strings.ReplaceAll(s, "%s", vecJSON(codecDim))))
	}
	served, _ := newCodecServer(f)
	twin, _ := newCodecServer(f)
	handler, reference := served.Handler(), stdlibOnly(twin, route(twin))
	f.Fuzz(func(t *testing.T, body []byte) {
		if int64(len(body)) > served.bodyLimit(vectors) {
			t.Skip("over the route's cap: 413 by design")
		}
		var fast, ref T
		refErr := decodeStd(bytes.NewReader(body), &ref)
		if scanBody(body, codecDim, P(&fast)) {
			if refErr != nil {
				t.Fatalf("scanner accepts, encoding/json refuses (%v):\n%q", refErr, body)
			}
			if !reflect.DeepEqual(fast, ref) {
				t.Fatalf("decoded values differ:\nscanner %+v\nstdlib  %+v\n%q", fast, ref, body)
			}
		}
		gotStatus, got := serveBody(handler, method, path, body)
		wantStatus, want := serveBody(reference, method, path, body)
		if gotStatus != wantStatus || got != want {
			t.Fatalf("served reply differs from the stdlib-only decode's:\n%d %s\n%d %s\n%q", gotStatus, got, wantStatus, want, body)
		}
		if (refErr != nil) != (gotStatus == http.StatusBadRequest && strings.Contains(got, "invalid JSON: ")) {
			t.Fatalf("encoding/json says %v, served %d %s", refErr, gotStatus, got)
		}
	})
}

func FuzzDecodeQuery(f *testing.F) {
	fuzzDecode(f, http.MethodPost, "/v1/search", 1, decodeSeeds,
		func(s *Server) func(http.ResponseWriter, *http.Request, *queryRequest) { return s.handleSearch })
}

func FuzzDecodeObject(f *testing.F) {
	seeds := []string{
		`{"id":900001,"x":0.2,"y":0.3,"vec":%s}`,
		`{"id":900002,"x":0.2,"y":0.3,"text":"wb wc wd"}`,
		` { "id" : 900003 , "x":0.2,"y":0.3,"text":"wb wc wd café","vec":%s } `,
		`{"id":900001,"x":0.2,"y":0.3,"vec":%s}`, // the conflict, on both sides
		`{"id":-1,"x":0.2,"y":0.3,"vec":%s}`,
		`{"id":-0,"x":0.2,"y":0.3,"vec":%s}`,
		`{"id":4294967295,"x":0.2,"y":0.3,"vec":%s}`,
		`{"id":4294967296,"x":0.2,"y":0.3,"vec":%s}`,
		`{"id":1.0,"x":0.2,"y":0.3,"vec":%s}`,
		`{"id":"7","x":0.2,"y":0.3,"vec":%s}`,
		`{"id":null,"x":0.2,"y":0.3,"vec":%s}`,
		`{"id":7,"id":8,"x":0.2,"y":0.3,"vec":%s}`,
		`{"ID":900004,"x":0.2,"y":0.3,"vec":%s}`,
		`{"id":900005,"x":0.2,"y":0.3,"vec":[]}`,
		`{"id":900006,"x":0.2,"y":0.3,"vec":%s,"k":5}`,
		`{"id":900007,"x":0.2,"y":0.3,"vec":%s} x`,
	}
	fuzzDecode(f, http.MethodPost, "/v1/objects", 1, append(seeds, decodeSeeds...),
		func(s *Server) func(http.ResponseWriter, *http.Request, *objectRequest) { return s.handleInsert })
}

func FuzzDecodeBatch(f *testing.F) {
	q := `{"x":0.4,"y":0.6,"vec":%s}`
	seeds := []string{
		`{"queries":[` + q + `,{"x":0.1,"y":0.2,"text":"wb wc wd"}],"k":3,"lambda":0.5}`,
		`{"queries":[` + q + `],"k":3,"lambda":0.5,"approx":true,"route":true,"routeTarget":0.9,"workers":2,"deadlineMs":100,"cache":"on"}`,
		` { "queries" : [ ` + q + ` , ` + q + ` ] , "lambda" : 0 } `,
		`{"queries":[],"lambda":0.5}`,
		`{"queries":null,"lambda":0.5}`,
		`{"lambda":0.5}`,
		`{"queries":[` + q + `,],"lambda":0.5}`,
		`{"queries":[` + q + `,null],"lambda":0.5}`,
		`{"queries":[{"x":0.4,"x":0.5,"y":0.6,"vec":%s}],"lambda":0.5}`,
		`{"queries":[{"x":0.4,"y":0.6,"vec":%s,"k":9,"lambda":3,"cache":"bogus"}],"lambda":0.5}`,
		`{"queries":[{"x":0.4,"y":0.6,"vec":%s,"bogus":1}],"lambda":0.5}`,
		`{"queries":[` + q + `],"queries":[],"lambda":0.5}`,
		`{"queries":[` + q + `],"workers":1.5}`,
		`{"queries":[` + q + `],"Workers":1}`,
		`{"queries":[[` + q + `]]}`,
		`{"queries":{"x":1}}`,
	}
	fuzzDecode(f, http.MethodPost, "/v1/search/batch", maxBatchQueries, append(seeds, decodeSeeds...),
		func(s *Server) func(http.ResponseWriter, *http.Request, *batchRequest) { return s.handleSearchBatch })
}

// FuzzEncodeResponse: the codec's replies are byte-identical to
// json.Encoder's for the same struct, and refuse exactly what it
// refuses, with its message.
func FuzzEncodeResponse(f *testing.F) {
	floats := []float64{0, math.Copysign(0, -1), 1, -1.5, 0.1, 1e21, 1e21 - 1e5, 1e-6, 1e-7, 9.999999e-7, 5e-324,
		math.MaxFloat64, -math.MaxFloat64, 1e-10, 123456789.125, math.NaN(), math.Inf(1), math.Inf(-1)}
	texts := []string{"", "plain words", `say "hi"`, `back\slash`, "<b>&amp;</b>", "line\u2028sep\u2029", "tab\tnl\ncr\rbs\bff\f",
		"ctl\x00\x01\x1f\x7f", "bad\xff\xfeutf8\xc0", "caf\u00e9 \U0001F600", "\xe2\x80", "\xed\xa0\x80"}
	for i, fl := range floats {
		f.Add(fl, floats[(i+1)%len(floats)], 0.25, 0.0, texts[i%len(texts)], "req-"+texts[(i+5)%len(texts)], uint32(i), int64(i)-3, uint64(i%3), uint8(i))
	}
	f.Add(0.5, 0.25, 0.75, math.NaN(), "t", "r", uint32(1), int64(1), uint64(1), uint8(0))
	f.Fuzz(func(t *testing.T, dist, x, y, wait float64, text, reqID string, id uint32, visited int64, snap uint64, flags uint8) {
		results := []resultItem{{ID: id, Dist: dist, X: x, Y: y, Text: text}, {ID: id + 1, Dist: y, X: dist, Y: x}}
		if flags&1 != 0 {
			results = nil
		}
		var meta *respMeta
		if flags&2 == 0 {
			meta = &respMeta{RequestID: reqID, Partial: flags&4 != 0, CacheHit: flags&8 != 0, SnapshotID: snap, QueueWaitMs: wait}
		}
		check := func(v any, encode func(*wireEncoder)) {
			t.Helper()
			var want bytes.Buffer
			wantErr := json.NewEncoder(&want).Encode(v)
			var e wireEncoder
			encode(&e)
			if wantErr != nil || e.err != nil {
				if wantErr == nil || e.err == nil || wantErr.Error() != e.err.Error() {
					t.Fatalf("json.Encoder error %v, codec error %v", wantErr, e.err)
				}
				return
			}
			if !bytes.Equal(want.Bytes(), e.buf) {
				t.Fatalf("reply differs:\njson  %s\ncodec %s", want.Bytes(), e.buf)
			}
		}
		qr := queryResponse{Results: results, Visited: visited, Meta: meta}
		check(qr, func(e *wireEncoder) { e.queryResponse(&qr) })
		br := batchResponse{Results: [][]resultItem{results, {}, nil, results[:min(1, len(results))]}, Visited: visited, Meta: meta}
		if flags&16 != 0 {
			br.Results = nil
		}
		check(br, func(e *wireEncoder) { e.batchResponse(&br) })
	})
}

// TestRequestConformance is the served column of the facade's table of
// the same name: every request shape the wire can express is posted to
// its /v1 route and must answer what ShardedIndex.Do answers for the
// equivalent SearchRequest — or refuse with 400 where Do refuses — and
// must do so whichever decoder read the body: each shape goes once
// inside the strict subset and once spelled so that only encoding/json
// takes it.
func TestRequestConformance(t *testing.T) {
	s, ds := newCodecServer(t)
	h := s.Handler()
	q := ds.Objects[7]
	kw := strings.Fields(ds.Objects[12].Text)[0]
	vec, err := json.Marshal(q.Vec)
	if err != nil {
		t.Fatal(err)
	}
	// body renders the plain exact request with members replaced or added.
	body := func(kv ...string) string {
		keys := []string{"x", "y", "vec", "lambda"}
		vals := map[string]string{"x": fmt.Sprint(q.X), "y": fmt.Sprint(q.Y), "vec": string(vec), "lambda": "0.5"}
		for i := 0; i < len(kv); i += 2 {
			if _, ok := vals[kv[i]]; !ok {
				keys = append(keys, kv[i])
			}
			vals[kv[i]] = kv[i+1]
		}
		members := make([]string, len(keys))
		for i, k := range keys {
			members[i] = `"` + k + `":` + vals[k]
		}
		return "{" + strings.Join(members, ",") + "}"
	}
	plain := func(*cssi.SearchRequest) {}
	shapes := []struct {
		name, path string
		members    []string
		mod        func(*cssi.SearchRequest) // nil: the route must answer 400
		// outside: even the plain spelling holds a value the subset lacks
		// (null, NaN), so encoding/json reads both bodies.
		outside bool
	}{
		{"exact", "/v1/search", []string{"k", "7"}, func(r *cssi.SearchRequest) { r.K = 7 }, false},
		{"default-k", "/v1/search", nil, plain, false},
		{"k=0", "/v1/search", []string{"k", "0"}, plain, false},
		{"approx", "/v1/search", []string{"approx", "true"}, func(r *cssi.SearchRequest) { r.Approx = true }, false},
		{"routed", "/v1/search", []string{"route", "true"}, func(r *cssi.SearchRequest) { r.Route = true }, false},
		{"routed-approx", "/v1/search", []string{"approx", "true", "route", "true", "routeTarget", "0.9"},
			func(r *cssi.SearchRequest) { r.Approx, r.Route, r.RouteTarget = true, true, 0.9 }, false},
		{"keywords", "/v1/keyword-search", []string{"keywords", `["` + kw + `"]`},
			func(r *cssi.SearchRequest) { r.Keywords = []string{kw} }, false},
		{"explain", "/v1/debug/explain", nil, plain, false},
		{"cache-off", "/v1/search", []string{"cache", `"off"`}, plain, false},
		{"cache-on", "/v1/search", []string{"cache", `"on"`}, plain, false},
		{"deadline", "/v1/search", []string{"deadlineMs", "60000"}, plain, false},
		{"null-is-absent", "/v1/search", []string{"k", "null", "route", "null"}, plain, true},
		{"invalid/lambda-high", "/v1/search", []string{"lambda", "1.5"}, nil, false},
		{"invalid/no-vec-no-text", "/v1/search", []string{"vec", "null"}, nil, true},
		{"invalid/wrong-dim", "/v1/search", []string{"vec", "[1,2,3]"}, nil, false},
		{"invalid/nan-location", "/v1/search", []string{"x", "NaN"}, nil, true},
		{"invalid/negative-deadline", "/v1/search", []string{"deadlineMs", "-5"}, nil, false},
		{"invalid/cache-mode", "/v1/search", []string{"cache", `"sometimes"`}, nil, false},
		{"invalid/stop-word-keywords", "/v1/keyword-search", []string{"keywords", `["of"]`}, nil, false},
		{"invalid/no-keywords", "/v1/keyword-search", nil, nil, false},
	}
	type reply struct {
		Results []struct {
			ID   uint32  `json:"id"`
			Dist float64 `json:"dist"`
		} `json:"results"`
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			var want []cssi.Result
			if sh.mod != nil {
				req := cssi.SearchRequest{Query: &q, K: 10, Lambda: 0.5}
				sh.mod(&req)
				if want, err = s.idx.Do(req); err != nil {
					t.Fatal(err)
				}
			}
			strict := body(sh.members...)
			// The same members under an escaped key: valid JSON outside the subset.
			loose := strings.Replace(strict, `"y"`, `"\u0079"`, 1)
			var replies [2]string
			for i, b := range []string{strict, loose} {
				if got := scanBody([]byte(b), codecDim, new(queryRequest)); got != (i == 0 && !sh.outside) {
					t.Fatalf("body %d: scanner accepts = %v\n%s", i, got, b)
				}
				status, out := serveBody(h, http.MethodPost, sh.path, []byte(b))
				replies[i] = out
				if sh.mod == nil {
					if status != http.StatusBadRequest || !strings.Contains(out, `"code":"bad_request"`) {
						t.Fatalf("body %d: status %d %s, want the 400 envelope", i, status, out)
					}
					continue
				}
				if status != http.StatusOK {
					t.Fatalf("body %d: status %d %s", i, status, out)
				}
				var got reply
				if err := json.Unmarshal([]byte(out), &got); err != nil {
					t.Fatal(err)
				}
				if len(got.Results) != len(want) {
					t.Fatalf("body %d: %d results, Do returns %d", i, len(got.Results), len(want))
				}
				for j, r := range got.Results {
					if r.ID != want[j].ID || r.Dist != want[j].Dist {
						t.Fatalf("body %d result %d: served %+v, Do %+v", i, j, r, want[j])
					}
				}
			}
			// An explain reply carries span timings; everything else is
			// byte for byte.
			if sh.name != "explain" && replies[0] != replies[1] {
				t.Fatalf("the two decoders are answered differently:\n%s\n%s", replies[0], replies[1])
			}
		})
	}
}

// TestUnencodableReplyIs500: a reply that cannot be encoded used to go
// out as 200 with a body cut off at the offending number (the status
// line was written before the encoder ran). It is the 500 envelope now,
// on the codec's routes and on the encoding/json ones alike.
func TestUnencodableReplyIs500(t *testing.T) {
	s, ds := newCodecServer(t)
	h := s.Handler()
	// JSON cannot carry NaN, so the object comes in through the library:
	// with k above the corpus size every object is a result, NaN distance
	// and all.
	bad := ds.Objects[3]
	bad.ID, bad.X = 910001, math.NaN()
	if err := s.idx.Insert(bad); err != nil {
		t.Fatal(err)
	}
	vec, _ := json.Marshal(ds.Objects[5].Vec)
	one := fmt.Sprintf(`{"x":0.4,"y":0.6,"vec":%s,"lambda":0.5,"k":%d}`, vec, ds.Len()+10)
	for path, body := range map[string]string{
		"/v1/search":        one,
		"/v1/search/batch":  fmt.Sprintf(`{"queries":[%s],"lambda":0.5,"k":%d}`, one, ds.Len()+10),
		"/v1/debug/explain": one,
	} {
		status, out := serveBody(h, http.MethodPost, path, []byte(body))
		var env errorEnvelope
		if err := json.Unmarshal([]byte(out), &env); err != nil {
			t.Fatalf("%s: reply is not one JSON value: %v\n%.200s", path, err, out)
		}
		if status != http.StatusInternalServerError || env.Error.Code != "internal" ||
			!strings.Contains(env.Error.Message, "unsupported value: NaN") || env.Error.RequestID == "" {
			t.Fatalf("%s: status %d, envelope %+v", path, status, env)
		}
	}
}

// countingBody is an endless request body that counts what is read.
type countingBody struct{ read int64 }

func (c *countingBody) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	c.read += int64(len(p))
	return len(p), nil
}

// TestBodyLimit: a body over the route's cap is refused with 413 —
// unread when its declared length already says so, and read no further
// than the cap when it does not — while the largest batch the route
// accepts still fits.
func TestBodyLimit(t *testing.T) {
	s, ds := newCodecServer(t)
	h := s.Handler()
	for _, route := range []struct {
		method, path string
		vectors      int
	}{
		{http.MethodPost, "/v1/search", 1},
		{http.MethodPut, "/v1/objects", 1},
		{http.MethodPost, "/v1/search/batch", maxBatchQueries},
	} {
		limit := s.bodyLimit(route.vectors)
		for _, declared := range []int64{limit + 1, -1} {
			body := &countingBody{}
			r := httptest.NewRequest(route.method, route.path, body)
			r.ContentLength = declared
			w := httptest.NewRecorder()
			h.ServeHTTP(w, r)
			var env errorEnvelope
			if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
				t.Fatal(err)
			}
			if w.Code != http.StatusRequestEntityTooLarge || env.Error.Code != "request_entity_too_large" {
				t.Fatalf("%s declared %d: status %d %s", route.path, declared, w.Code, w.Body)
			}
			if declared > 0 && body.read != 0 {
				t.Fatalf("%s: read %d bytes of a body declared over the cap", route.path, body.read)
			}
			if body.read > limit+1 {
				t.Fatalf("%s: read %d bytes, cap %d", route.path, body.read, limit)
			}
		}
	}

	// A maximal batch: every query a full vector printed at float64
	// width, well past what a float32 needs.
	var b strings.Builder
	b.WriteString(`{"queries":[`)
	for i := 0; i < maxBatchQueries; i++ {
		q := ds.Objects[i%ds.Len()]
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"x":%v,"y":%v,"vec":[`, q.X, q.Y)
		for j, f := range q.Vec {
			if j > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%.17g", float64(f)*(1+1e-9))
		}
		b.WriteString("]}")
	}
	b.WriteString(`],"k":1,"lambda":0.5}`)
	if int64(b.Len()) > s.bodyLimit(maxBatchQueries) {
		t.Fatalf("a maximal batch is %d bytes, cap %d", b.Len(), s.bodyLimit(maxBatchQueries))
	}
	if status, out := serveBody(h, http.MethodPost, "/v1/search/batch", []byte(b.String())); status != http.StatusOK {
		t.Fatalf("maximal batch: status %d %.200s", status, out)
	}

	// The buffers that batch grew past the pooled size were dropped.
	for i := 0; i < 64; i++ {
		if sc := scannerPool.Get().(*scanner); cap(sc.b) > maxPooledBuf {
			t.Fatalf("pool handed out a %d-byte request buffer", cap(sc.b))
		}
		if e := encoderPool.Get().(*wireEncoder); cap(e.buf) > maxPooledBuf {
			t.Fatalf("pool handed out a %d-byte reply buffer", cap(e.buf))
		}
	}
}

// TestBodyReadError: a body whose read fails is answered as the
// streaming decoder answered it — the read error when the value was
// still incomplete, the value when it was not.
func TestBodyReadError(t *testing.T) {
	s, ds := newCodecServer(t)
	h := s.Handler()
	vec, _ := json.Marshal(ds.Objects[5].Vec)
	whole := fmt.Sprintf(`{"x":0.4,"y":0.6,"vec":%s,"lambda":0.5}`, vec)
	for _, c := range []struct {
		sent string
		want int
	}{{whole, http.StatusOK}, {whole[:len(whole)/2], http.StatusBadRequest}} {
		r := httptest.NewRequest(http.MethodPost, "/v1/search",
			io.MultiReader(strings.NewReader(c.sent), failingReader{io.ErrClosedPipe}))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		if w.Code != c.want || (c.want != http.StatusOK && !strings.Contains(w.Body.String(), "invalid JSON: "+io.ErrClosedPipe.Error())) {
			t.Fatalf("%d bytes then a read error: status %d %s", len(c.sent), w.Code, w.Body)
		}
	}
}

// reusedWriter is an http.ResponseWriter whose storage survives a reset.
type reusedWriter struct {
	h      http.Header
	body   []byte
	status int
}

func (w *reusedWriter) Header() http.Header { return w.h }
func (w *reusedWriter) Write(b []byte) (int, error) {
	w.body = append(w.body, b...)
	return len(b), nil
}
func (w *reusedWriter) WriteHeader(status int) { w.status = status }

// TestServedHitAllocs is the deterministic pin a timing cannot give: a
// /v1/search cache hit driven through Handler() stays under a fixed
// number of allocations, and the codec's share of them is the decoded
// vector, the decoded text when there is one, and nothing on the way
// out. At the parent commit — encoding/json on both sides — the same
// request (a 16-float vector) cost 43 allocations, 13 of them in decode
// and 2 in writeJSON; it costs 33 now.
func TestServedHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool bypasses its caches under the race detector")
	}
	s, ds := newCodecServer(t)
	s.EnableResultCache(64)
	h := s.Handler()
	q := ds.Objects[9]
	body, err := json.Marshal(map[string]any{"x": q.X, "y": q.Y, "vec": q.Vec, "k": 10, "lambda": 0.5})
	if err != nil {
		t.Fatal(err)
	}
	// AllocsPerRun can see a stray allocation if GC empties the
	// sync.Pool mid-measure, so take the best of three.
	measure := func(runs int, f func()) float64 {
		best := math.Inf(1)
		for attempt := 0; attempt < 3; attempt++ {
			best = min(best, testing.AllocsPerRun(runs, f))
		}
		return best
	}

	const runs = 50
	reqs := make([]*http.Request, 3*(runs+1)+2)
	for i := range reqs {
		reqs[i] = httptest.NewRequest(http.MethodPost, "/v1/search", bytes.NewReader(body))
	}
	w := &reusedWriter{h: http.Header{}}
	next := 0
	serve := func() {
		clear(w.h)
		w.body, w.status = w.body[:0], 0
		h.ServeHTTP(w, reqs[next])
		next++
	}
	serve() // the miss that fills the cache
	if w.status != http.StatusOK {
		t.Fatalf("status %d %s", w.status, w.body)
	}
	const ceiling = 36
	got := measure(runs, serve)
	if !bytes.Contains(w.body, []byte(`"cacheHit":true`)) {
		t.Fatalf("not a cache hit: %s", w.body)
	}
	t.Logf("one served cache hit: %v allocations (ceiling %d)", got, ceiling)
	if got > ceiling {
		t.Errorf("one served cache hit: %v allocations, ceiling %d", got, ceiling)
	}

	withText, err := json.Marshal(map[string]any{"x": q.X, "y": q.Y, "vec": q.Vec, "text": "wb wc wd", "lambda": 0.5})
	if err != nil {
		t.Fatal(err)
	}
	var req queryRequest
	for _, c := range []struct {
		body []byte
		want float64
	}{{body, 1}, {withText, 2}} {
		sc := &scanner{b: c.body, dim: codecDim}
		if got := measure(runs, func() {
			req = queryRequest{}
			if !sc.body(&req) {
				t.Fatal("outside the strict subset")
			}
		}); got > c.want {
			t.Errorf("scanning %s: %v allocations, want at most %v", c.body, got, c.want)
		}
	}
	resp := queryResponse{Results: s.respond([]cssi.Result{{ID: q.ID, Dist: 0.25}, {ID: ds.Objects[1].ID, Dist: 0.5}}),
		Visited: 12, Meta: &respMeta{RequestID: "00f067aa0ba902b7", CacheHit: true, SnapshotID: 3}}
	r := reqs[len(reqs)-1]
	if got := measure(runs, func() {
		clear(w.h)
		w.body = w.body[:0]
		writeEncoded(w, r, http.StatusOK, func(e *wireEncoder) { e.queryResponse(&resp) })
	}); got > 1 { // the Content-Type header value
		t.Errorf("encoding a reply: %v allocations, want at most 1", got)
	}
}

// BenchmarkDecodeQuery prices the two readings of the body the
// benchmark's clients send: a 100-float vector, about 1.2 kB.
func BenchmarkDecodeQuery(b *testing.B) {
	vec := make([]float32, 100)
	for i := range vec {
		vec[i] = float32(math.Sin(float64(i))) / 3
	}
	body, err := json.Marshal(map[string]any{"x": 0.4778, "y": 0.7492, "vec": vec, "k": 10, "lambda": 0.5})
	if err != nil {
		b.Fatal(err)
	}
	var req queryRequest
	b.Run("scanner", func(b *testing.B) {
		sc := &scanner{b: body, dim: len(vec)}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			req = queryRequest{}
			if !sc.body(&req) {
				b.Fatal("outside the strict subset")
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			req = queryRequest{}
			if err := decodeStd(bytes.NewReader(body), &req); err != nil {
				b.Fatal(err)
			}
		}
	})
}
