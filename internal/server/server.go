// Package server exposes a built CSSI/CSSIA index over HTTP with a small
// JSON API, turning the library into a standalone similarity-search
// service (the downstream-adoption path: build or load an index, then
// `cssiserve` it).
//
// Endpoints, all under the versioned /v1 prefix:
//
//	GET  /v1/healthz             liveness probe
//	GET  /v1/stats               index statistics
//	POST /v1/search              k-NN query (exact or approximate)
//	POST /v1/search/batch        many k-NN queries in one request
//	POST /v1/keyword-search      k-NN query among objects holding every keyword
//	POST /v1/range               range query: the k nearest within a radius
//	POST /v1/box                 windowed semantic k-NN
//	POST /v1/objects             insert an object
//	PUT  /v1/objects             update an object
//	DELETE /v1/objects?id=N      delete an object
//	POST /v1/rebuild             non-blocking index rebuild (?wait=1 blocks)
//	POST /v1/debug/explain       k-NN query with a per-shard explain trace
//	GET  /v1/debug/traces        recently retained request traces (tail-sampled)
//	GET  /v1/debug/traces/{id}   one trace by request ID or W3C trace ID
//	GET  /v1/metrics             Prometheus text-format metrics
//
// Every non-2xx response (the router's own 404/405 included) carries
// one JSON error envelope:
//
//	{"error": {"code": "bad_request", "message": "...", "request_id": "..."}}
//
// The bodies that carry vectors and results go through the package's
// own wire codec (codec.go) rather than encoding/json's reflection;
// what a client sends and receives is unchanged by it. Request bodies
// are capped per route (413 past the cap).
//
// Queries carry either an explicit embedding vector or free text (encoded
// with the dataset's embedding model when one is attached). The server
// serves one cssi.Index of any shard count: reads run over every
// shard's lock-free snapshot, writes route to exactly one shard's
// write-and-publish cycle, and /rebuild reconstructs all shards in
// parallel in the background without stalling either.
//
// Every request carries a request ID (X-Request-Id, honored inbound,
// generated otherwise, always echoed in the response); the structured
// request log and the /debug/explain trace both carry it, so one slow
// query can be chased from the access log into its per-shard spans.
//
// Tracing is always on: every query records a compact span tree into a
// lock-free ring, the tail sampler retains every slow, errored, or
// partial trace plus a deterministic 1-in-N of normal traffic, and
// retained traces are served at /debug/traces. W3C trace context is
// honored on every route — an inbound traceparent's trace ID joins the
// stored trace, and the response echoes a traceparent for the next hop.
// Slow queries are additionally emitted on a structured slog channel
// with their full span tree, and /metrics carries an SLO block
// (per-endpoint latency-objective counters), a shard-imbalance
// histogram, and — for OpenMetrics scrapes — latency-histogram
// exemplars pointing at recent trace IDs.
//
// Serving under load: every query response carries a uniform "meta"
// block ({"partial","cacheHit","requestId",...}); query requests may
// set "deadlineMs" (exhausting the budget returns the exact top-k of
// the work done so far with meta.partial=true) and "cache" ("on"/
// "off") to steer the optional snapshot-keyed result cache
// (EnableResultCache / cssiserve -cache). With admission control
// enabled (SetAdmissionLimits / -max-inflight,-max-queue,-queue-wait)
// each query endpoint runs behind a bounded queue and sheds the excess
// with 429 + Retry-After, keeping admitted-request latency bounded
// past saturation; /metrics grows admission and result-cache blocks.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/embed"
	"repro/internal/obs"
)

// Server wraps an index and its optional embedding model.
type Server struct {
	idx   *cssi.Index
	model *embed.Model // may be nil: text queries then return an error
	met   *metrics
	log   *slog.Logger

	// sink is the always-on tail-sampling trace collector — created
	// with defaults by New, reconfigured or disabled via
	// SetTraceOptions — that /debug/traces reads and the slow-query
	// log channel feeds from.
	sink *obs.Sink

	// admit sizes the per-endpoint admission gates Handler installs on
	// the query endpoints (nil = no admission control, the default);
	// gates holds the installed gates for the /metrics sampler. Set via
	// SetAdmissionLimits.
	admit *admissionConfig
	gates []*admissionGate

	// defaultDeadline is the time budget given to query requests that
	// omit deadlineMs (0 = unbounded, the default). Set via
	// SetDefaultDeadline.
	defaultDeadline time.Duration
}

// SetDeltaDefaults sets the write-overlay compaction threshold on every
// shard: positive bounds each shard's overlay at that many write ops
// before a background compaction folds it, and 0 keeps the library
// default (cssi.DefaultDeltaCompactThreshold). Returns
// cssi.ErrInvalidDeltaThreshold for negative values. Call before
// Handler.
func (s *Server) SetDeltaDefaults(threshold int) error {
	return s.idx.SetDeltaThreshold(threshold)
}

// NewSharded is New, kept for bench/ (ROADMAP item 1 deletes it).
//
// Deprecated: use New.
func NewSharded(idx *cssi.Index, model *embed.Model) *Server { return New(idx, model) }

// New returns a Server over idx, of any shard count. model may be nil
// if clients always send explicit vectors. The keyword filter is
// enabled on every shard so the /keyword-search endpoint works out of
// the box, and the server installs its own trace sink and compaction
// observer on idx, which it owns afterwards: all mutations must go
// through its API.
func New(idx *cssi.Index, model *embed.Model) *Server {
	if !idx.KeywordFilterEnabled() {
		idx.EnableKeywordFilter()
	}
	s := &Server{idx: idx, model: model, met: newMetrics(), log: slog.Default()}
	// Feed every shard's overlay compactions into the latency histogram
	// (compactions run on background goroutines; the histogram is
	// atomic, so the concurrent observer calls are safe).
	idx.SetCompactionObserver(s.met.compactionDuration.observeDuration)
	// Tracing is always-on by default: every Do records a span tree and
	// the tail sampler retains the slow/errored/partial traces plus a
	// deterministic 1-in-N of normal traffic. SetTraceOptions(0, ...)
	// opts out.
	s.installSink(obs.NewSink(obs.SinkConfig{}))
	return s
}

// installSink wires sink into the index, the slow-query log channel,
// and the shard-imbalance metrics (nil uninstalls tracing entirely).
func (s *Server) installSink(sink *obs.Sink) {
	s.sink = sink
	s.met.sink = sink
	if sink == nil {
		s.idx.SetTraceSink(nil)
		return
	}
	sink.SetObserver(s.met.observeTrace)
	sink.SetSlowHandler(s.logOffendingTrace)
	s.idx.SetTraceSink(sink)
}

// SetTraceOptions reconfigures the always-on tracer: bufferSize is the
// retained-trace ring capacity (≤ 0 disables tracing entirely), slow
// the latency at which a trace is always retained and logged (0 keeps
// the 100ms default, negative disables the slow rule), and sampleEvery
// the deterministic 1-in-N normal-traffic sample (0 keeps the default
// 128, negative keeps only slow/errored/partial traces). Call before
// Handler.
func (s *Server) SetTraceOptions(bufferSize int, slow time.Duration, sampleEvery int) {
	if bufferSize <= 0 {
		s.installSink(nil)
		return
	}
	s.installSink(obs.NewSink(obs.SinkConfig{
		BufferSize:    bufferSize,
		SlowThreshold: slow,
		SampleEvery:   sampleEvery,
	}))
}

// SetSLOObjectives replaces the per-endpoint latency objectives the
// /metrics SLO block counts against (default 5ms/25ms/100ms). Bounds
// must be positive and ascending. Call before Handler.
func (s *Server) SetSLOObjectives(objectives []time.Duration) error {
	return s.met.setSLOBounds(objectives)
}

// logOffendingTrace is the structured slow-query log channel: every
// slow, errored, or partial trace the tail sampler retains is emitted
// with its full span tree, so the forensic loop works from the log
// alone (the same trace stays retrievable at /debug/traces/<id>).
func (s *Server) logOffendingTrace(t *obs.Trace) {
	spans, _ := json.Marshal(t.Shards)
	s.log.Warn("slow query",
		"requestId", t.RequestID,
		"traceId", t.TraceID,
		"reason", t.SampleReason,
		"op", t.Op,
		"algo", t.Algo,
		"flavor", t.Flavor,
		"k", t.K,
		"lambda", t.Lambda,
		"queries", t.Queries,
		"durationMs", float64(t.DurationNanos)/1e6,
		"gatherUs", float64(t.GatherNanos)/1e3,
		"error", t.Error,
		"spans", string(spans),
	)
}

// SetLogger replaces the server's structured logger (default
// slog.Default). Call before Handler; the logger is read by the
// request middleware on every request.
func (s *Server) SetLogger(l *slog.Logger) {
	if l != nil {
		s.log = l
	}
}

// buildVersionInfo reads the module version and Go toolchain version
// for cssi_build_info. The module version is "(devel)" for plain
// `go build` working-tree builds.
func buildVersionInfo() (version, goVersion string) {
	version, goVersion = "unknown", runtime.Version()
	if bi, ok := debug.ReadBuildInfo(); ok {
		if bi.Main.Version != "" {
			version = bi.Main.Version
		}
		if bi.GoVersion != "" {
			goVersion = bi.GoVersion
		}
	}
	return version, goVersion
}

// request is one request's state, shared by every layer of Handler's
// stack: the IDs the outermost layer assigns, the status the reply
// carries, and the admission gate's queue wait. It is the one wrapper
// of the ResponseWriter and the one value in the request's context.
type request struct {
	http.ResponseWriter
	r       *http.Request
	id      string // X-Request-Id, also this hop's span ID when it has the shape
	traceID string // W3C trace ID, inbound or minted
	status  int
	// queueWait is the time spent queued at the admission gate (0 when
	// admitted at once or when no gate is configured).
	queueWait time.Duration
	// intercepted says the router's plain-text 404/405 was replaced by
	// the JSON envelope, so its body is swallowed.
	intercepted bool
	// hdr backs the X-Request-Id and traceparent header values.
	hdr [2]string
}

// ctxKeyRequest keys the request's state in its context.
type ctxKeyRequest struct{}

// requestOf returns r's state, or an empty one when the handler runs
// outside Handler's stack (direct tests).
func requestOf(r *http.Request) *request {
	if st, ok := r.Context().Value(ctxKeyRequest{}).(*request); ok {
		return st
	}
	return &request{}
}

// WriteHeader records the status and rewrites the router's own
// plain-text error responses (404 unknown route, 405 method mismatch —
// written by ServeMux, not by any handler) into the JSON error
// envelope. Handler-raised errors pass through untouched: they already
// carry the envelope and are recognized by their application/json
// content type.
func (st *request) WriteHeader(status int) {
	st.status = status
	if (status == http.StatusNotFound || status == http.StatusMethodNotAllowed) &&
		!strings.HasPrefix(st.Header().Get("Content-Type"), "application/json") {
		st.intercepted = true
		msg := "no such route: " + st.r.URL.Path
		if status == http.StatusMethodNotAllowed {
			msg = st.r.Method + " not allowed on " + st.r.URL.Path
		}
		st.Header().Del("Content-Type")
		st.Header().Del("X-Content-Type-Options")
		writeError(st.ResponseWriter, st.r, status, msg)
		return
	}
	st.ResponseWriter.WriteHeader(status)
}

func (st *request) Write(b []byte) (int, error) {
	if st.intercepted {
		// Swallow the router's plain-text body; the envelope is written.
		return len(b), nil
	}
	return st.ResponseWriter.Write(b)
}

// withRequest is the outermost middleware: it assigns every request an
// ID (honoring an inbound X-Request-Id so traces correlate across
// services), echoes it on the response, puts the request's state in
// its context, and emits one Debug-level structured log line per
// request when Debug is enabled (run cssiserve with -log-level=debug
// for an access log). Its writer is the state, which records the
// status for the metrics and the log and puts the router's own 404/405
// responses in the JSON error envelope like every handler error.
//
// It also speaks W3C trace context: an inbound traceparent header is
// parsed and its trace ID joined to the request (so the stored trace
// is retrievable by the caller's own distributed trace ID), a fresh
// trace ID is minted otherwise, and the response echoes a traceparent
// whose span ID is this server's request ID — tying the two
// correlation schemes together.
func (s *Server) withRequest(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		st := &request{ResponseWriter: w, status: http.StatusOK}
		st.id = r.Header.Get("X-Request-Id")
		if st.id == "" {
			st.id = obs.NewRequestID()
		}
		traceID, parentSpan, ok := obs.ParseTraceParent(r.Header.Get("Traceparent"))
		if !ok {
			traceID = obs.NewTraceID()
		}
		st.traceID = traceID
		// The request ID doubles as this hop's span ID when it has the
		// right shape; an honored inbound X-Request-Id of another format
		// gets a fresh span ID so the echoed traceparent stays valid.
		spanID := st.id
		if !obs.ValidSpanID(spanID) {
			spanID = obs.NewSpanID()
		}
		st.hdr = [2]string{st.id, obs.FormatTraceParent(traceID, spanID)}
		h := w.Header()
		h["X-Request-Id"] = st.hdr[0:1:1]
		h["Traceparent"] = st.hdr[1:2:2]
		st.r = r.WithContext(context.WithValue(r.Context(), ctxKeyRequest{}, st))
		if !s.log.Enabled(r.Context(), slog.LevelDebug) {
			next.ServeHTTP(st, st.r)
			return
		}
		start := time.Now()
		next.ServeHTTP(st, st.r)
		s.log.Debug("http request",
			"requestId", st.id,
			"traceId", traceID,
			"parentSpan", parentSpan,
			"method", r.Method,
			"path", r.URL.Path,
			"status", st.status,
			"durationUs", time.Since(start).Microseconds(),
		)
	})
}

// Handler returns the HTTP handler tree, every route under /v1. Every
// endpoint — the metrics scrape included — is wrapped with request/error
// counting; query endpoints additionally feed the search latency
// histogram and mutation endpoints the mutation latency histogram. The
// whole tree sits behind the error-envelope middleware (so the router's
// own 404/405 responses come out in the JSON envelope) and the
// request-ID/logging middleware.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	// Query endpoints sit behind an admission gate when one is
	// configured (gate inside the instrumentation so shed 429s land in
	// the endpoint's request/error counters and latency histogram).
	s.gates = nil
	query := func(name string, h http.HandlerFunc) http.HandlerFunc {
		if s.admit != nil {
			g := newGate(name, s.admit)
			s.gates = append(s.gates, g)
			h = s.admitted(g, h)
		}
		return s.met.instrument(name, kindQuery, h)
	}
	plain := func(name string, h http.HandlerFunc) http.HandlerFunc { return s.met.instrument(name, kindPlain, h) }
	mutation := func(name string, h http.HandlerFunc) http.HandlerFunc {
		return s.met.instrument(name, kindMutation, h)
	}
	mux.HandleFunc("GET /v1/healthz", plain("healthz", s.handleHealth))
	mux.HandleFunc("GET /v1/stats", plain("stats", s.handleStats))
	mux.HandleFunc("POST /v1/search", query("search", decoded(s, 1, s.handleSearch(&searchRoute))))
	mux.HandleFunc("POST /v1/search/batch", query("search_batch", decoded(s, maxBatchQueries, s.handleSearchBatch)))
	mux.HandleFunc("POST /v1/keyword-search", query("keyword_search", decoded(s, 1, s.handleKeywordSearch)))
	mux.HandleFunc("POST /v1/range", query("range", decoded(s, 1, s.handleSearch(&rangeRoute))))
	mux.HandleFunc("POST /v1/box", query("box", decoded(s, 1, s.handleSearch(&boxRoute))))
	mux.HandleFunc("POST /v1/debug/explain", query("explain", decoded(s, 1, s.handleExplain)))
	mux.HandleFunc("POST /v1/objects", mutation("insert", decoded(s, 1, s.handleInsert)))
	mux.HandleFunc("PUT /v1/objects", mutation("update", decoded(s, 1, s.handleUpdate)))
	mux.HandleFunc("DELETE /v1/objects", mutation("delete", s.handleDelete))
	mux.HandleFunc("POST /v1/rebuild", plain("rebuild", s.handleRebuild))
	mux.HandleFunc("GET /v1/debug/traces", plain("traces", s.handleTraces))
	mux.HandleFunc("GET /v1/debug/traces/{id}", plain("trace_get", s.handleTraceByID))
	version, goVersion := buildVersionInfo()
	// The metrics scrape samples the admission gates and the result
	// cache live (both nil-tolerant: the blocks only appear once the
	// features are enabled).
	if len(s.gates) > 0 {
		s.met.admissionStats = s.gateStats
	}
	s.met.cacheStats = s.idx.ResultCacheStats
	mux.HandleFunc("GET /v1/metrics", plain("metrics", s.met.handler(s.idx.ShardStats, version, goVersion)))
	return s.withRequest(mux)
}

// gateStats samples every admission gate for the metrics scrape.
func (s *Server) gateStats() []gateStat {
	out := make([]gateStat, len(s.gates))
	for i, g := range s.gates {
		out[i] = g.stat()
	}
	return out
}

// queryRequest is the shared request body of the query endpoints.
type queryRequest struct {
	X      float64   `json:"x"`
	Y      float64   `json:"y"`
	Text   string    `json:"text,omitempty"`
	Vec    []float32 `json:"vec,omitempty"`
	K      int       `json:"k,omitempty"`
	Lambda float64   `json:"lambda"`
	Radius float64   `json:"radius,omitempty"` // /range only
	Approx bool      `json:"approx,omitempty"` // /search only
	// Keywords are the required terms of /keyword-search (boolean AND).
	Keywords []string `json:"keywords,omitempty"`
	// Box window (/box only).
	LoX float64 `json:"loX,omitempty"`
	LoY float64 `json:"loY,omitempty"`
	HiX float64 `json:"hiX,omitempty"`
	HiY float64 `json:"hiY,omitempty"`
	// DeadlineMs is the request's time budget in milliseconds (every
	// query route): 0 falls back to
	// the server's -deadline default, then unbounded. A request that
	// exhausts its budget answers with the exact top-k of the candidates
	// examined so far and meta.partial=true instead of running long.
	DeadlineMs int64 `json:"deadlineMs,omitempty"`
	// Cache selects result-cache participation: "" follows the server
	// default (the cache, when -cache enabled it), "on" asks explicitly,
	// "off" bypasses the cache for this request.
	Cache string `json:"cache,omitempty"`
}

// resultItem is one answer row.
type resultItem struct {
	ID   uint32  `json:"id"`
	Dist float64 `json:"dist"`
	X    float64 `json:"x"`
	Y    float64 `json:"y"`
	Text string  `json:"text,omitempty"`
}

// respMeta is the uniform response metadata block every query endpoint
// returns: what the serving machinery did to the request, surfaced so
// clients can tell a complete answer from a deadline-truncated one and
// a cached answer from a computed one.
type respMeta struct {
	// RequestID echoes the request's X-Request-Id (the same ID the error
	// envelope, access log, and retained traces carry).
	RequestID string `json:"requestId"`
	// Partial reports the answer was truncated by the request's time
	// budget: the results are the exact top-k of the candidates examined
	// before the deadline fired, but more may exist.
	Partial bool `json:"partial"`
	// CacheHit reports the answer was served from the result cache
	// (bit-identical to the uncached answer by construction).
	CacheHit bool `json:"cacheHit"`
	// SnapshotID identifies the index publication the answer was
	// computed against (monotone per serving process).
	SnapshotID uint64 `json:"snapshotId,omitempty"`
	// QueueWaitMs is the time the request spent queued at the admission
	// gate before executing (absent when admitted immediately).
	QueueWaitMs float64 `json:"queueWaitMs,omitempty"`
}

// respMetaFrom assembles the meta block from the index-filled
// ResponseMeta and the request's admission queue wait.
func respMetaFrom(st *request, m *cssi.ResponseMeta) respMeta {
	out := respMeta{RequestID: st.id, Partial: m.Partial, CacheHit: m.CacheHit, SnapshotID: m.SnapshotID}
	if st.queueWait > 0 {
		out.QueueWaitMs = float64(st.queueWait.Nanoseconds()) / 1e6
	}
	return out
}

// queryBudget resolves a request's deadlineMs against the server
// default.
func (s *Server) queryBudget(ms int64) (time.Duration, error) {
	if ms < 0 {
		return 0, fmt.Errorf("deadlineMs must be >= 0, got %d", ms)
	}
	if ms == 0 {
		return s.defaultDeadline, nil
	}
	return time.Duration(ms) * time.Millisecond, nil
}

// cacheModeFrom parses the request's cache field.
func cacheModeFrom(c string) (cssi.CacheMode, error) {
	switch c {
	case "":
		return cssi.CacheDefault, nil
	case "on":
		return cssi.CacheOn, nil
	case "off":
		return cssi.CacheOff, nil
	}
	return cssi.CacheDefault, fmt.Errorf(`cache must be "on" or "off", got %q`, c)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, r, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	shardStats := s.idx.ShardStats()
	shards := make([]map[string]interface{}, len(shardStats))
	unanchored := 0
	var heap int64
	for i, st := range shardStats {
		shards[i] = map[string]interface{}{
			"objects":           st.Objects,
			"hybridClusters":    st.Clusters,
			"updatesSinceBuild": st.UpdatesSinceBuild,
			"deltaOps":          st.DeltaOps,
			"compactions":       st.Compactions,
			"unanchoredRows":    st.Unanchored,
			"heapBytes":         st.Heap.Total(),
			"heap":              st.Heap,
		}
		unanchored += st.Unanchored
		heap += st.Heap.Total()
	}
	writeJSON(w, r, http.StatusOK, map[string]interface{}{
		"objects":           s.idx.Len(),
		"hybridClusters":    s.idx.NumClusters(),
		"updatesSinceBuild": s.idx.UpdatesSinceBuild(),
		"unanchoredRows":    unanchored,
		"heapBytes":         heap,
		"shards":            len(shardStats),
		"perShard":          shards,
	})
}

// buildQuery turns a request into a query object, encoding text when no
// vector is given.
func (s *Server) buildQuery(req *queryRequest) (*cssi.Object, error) {
	vec := req.Vec
	if vec == nil {
		if req.Text == "" {
			return nil, fmt.Errorf("request needs either vec or text")
		}
		if s.model == nil {
			return nil, fmt.Errorf("server has no embedding model; send an explicit vec")
		}
		v, ok := s.model.EncodeDocument(req.Text)
		if !ok {
			return nil, fmt.Errorf("text has fewer than 3 in-vocabulary words")
		}
		vec = v
	}
	// Reject wrong-length vectors here so a malformed request becomes a
	// 400 instead of a panic inside the search hot path.
	if len(vec) != s.idx.Dim() {
		return nil, fmt.Errorf("vector dim %d, index expects %d", len(vec), s.idx.Dim())
	}
	return &cssi.Object{ID: 1<<32 - 1, X: req.X, Y: req.Y, Text: req.Text, Vec: vec}, nil
}

// queryRoute is what tells the query endpoints apart before they reach
// the index: which of the shared request fields the route reads.
type queryRoute struct {
	// defaultK turns k <= 0 into 10.
	defaultK bool
	// validate holds the route's field checks, in the order their
	// messages take precedence.
	validate func(*queryRequest) error
	// deadline and cache say the route honours deadlineMs and cache (and
	// so refuses a bad value); elsewhere the fields are ignored.
	deadline, cache bool
	// shape is the query shape handleSearch gives the request.
	shape queryShape
}

// queryShape names the fields a handleSearch route fills beyond the
// shared ones: approx, the radius, or the window.
type queryShape int

const (
	shapeKNN queryShape = iota
	shapeRange
	shapeBox
)

var errLambdaRange = errors.New("lambda must be in [0,1]")

func checkLambda(req *queryRequest) error {
	if req.Lambda < 0 || req.Lambda > 1 {
		return errLambdaRange
	}
	return nil
}

var (
	searchRoute  = queryRoute{defaultK: true, validate: checkLambda, deadline: true, cache: true, shape: shapeKNN}
	explainRoute = queryRoute{defaultK: true, validate: checkLambda, deadline: true}
	keywordRoute = queryRoute{defaultK: true, deadline: true, cache: true, validate: func(req *queryRequest) error {
		if err := checkLambda(req); err != nil {
			return err
		}
		if len(req.Keywords) == 0 {
			return errors.New("keywords required")
		}
		return nil
	}}
	rangeRoute = queryRoute{defaultK: true, deadline: true, cache: true, shape: shapeRange, validate: func(req *queryRequest) error {
		if req.Radius < 0 {
			return errors.New("radius must be >= 0")
		}
		return checkLambda(req)
	}}
	boxRoute = queryRoute{defaultK: true, deadline: true, cache: true, shape: shapeBox, validate: func(req *queryRequest) error {
		if req.LoX > req.HiX || req.LoY > req.HiY {
			return errors.New("inverted window")
		}
		return nil
	}}
)

// queryCall is a query request resolved against the server: the query
// object and the serving knobs the route honours.
type queryCall struct {
	q      *cssi.Object
	budget time.Duration
	cache  cssi.CacheMode
}

// prepare is the prelude the query endpoints share — k default, field
// checks, query object, time budget, cache mode — answering 400 itself
// when the request does not pass.
func (s *Server) prepare(w http.ResponseWriter, r *http.Request, req *queryRequest, route *queryRoute) (c queryCall, ok bool) {
	if route.defaultK && req.K <= 0 {
		req.K = 10
	}
	err := route.validate(req)
	if err == nil {
		c.q, err = s.buildQuery(req)
	}
	if err == nil && route.deadline {
		c.budget, err = s.queryBudget(req.DeadlineMs)
	}
	if err == nil && route.cache {
		c.cache, err = cacheModeFrom(req.Cache)
	}
	if err != nil {
		writeError(w, r, http.StatusBadRequest, err.Error())
		return c, false
	}
	return c, true
}

// handleSearch returns the handler of the single-query routes that
// differ only in the shape they give the request: /search (k-NN, exact
// or approximate), /range (radius) and /box (window, ranked by meaning
// alone: the route ignores lambda).
func (s *Server) handleSearch(route *queryRoute) func(http.ResponseWriter, *http.Request, *queryRequest) {
	return func(w http.ResponseWriter, r *http.Request, req *queryRequest) {
		c, ok := s.prepare(w, r, req, route)
		if !ok {
			return
		}
		st := requestOf(r)
		var stats cssi.Stats
		var meta cssi.ResponseMeta
		sr := cssi.SearchRequest{
			Query: c.q, K: req.K, Lambda: req.Lambda, Stats: &stats,
			Deadline: c.budget, Cache: c.cache, Meta: &meta,
			RequestID: st.id, TraceID: st.traceID,
		}
		switch route.shape {
		case shapeKNN:
			sr.Approx = req.Approx
		case shapeRange:
			sr.Radius = &req.Radius
		case shapeBox:
			sr.Window, sr.Lambda = &cssi.Window{LoX: req.LoX, LoY: req.LoY, HiX: req.HiX, HiY: req.HiY}, 0
		}
		// The scatter pins one immutable snapshot per shard; the metadata
		// decoration afterwards resolves each result ID on its owning shard.
		rs, err := s.idx.DoContext(r.Context(), sr)
		if err != nil {
			writeError(w, r, http.StatusBadRequest, err.Error())
			return
		}
		s.met.observeSearchStats(&stats)
		s.writeResults(w, st, rs, stats.VisitedObjects, &meta)
	}
}

// explainResponse is the body of /debug/explain: the same k-NN answer
// /search returns plus the per-shard trace.
type explainResponse struct {
	Results []resultItem      `json:"results"`
	Trace   *cssi.SearchTrace `json:"trace"`
	Meta    *respMeta         `json:"meta,omitempty"`
}

// handleExplain answers one k-NN query exactly like /search (the exact
// results are bit-identical) and attaches the per-query explain trace:
// one span per shard with objects scanned vs pruned, prune ratios, and
// span wall time, stamped with the request's ID.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request, req *queryRequest) {
	// Explain requests never touch the result cache (a cached answer has
	// no per-shard trace to attach), so the route ignores the cache field.
	c, ok := s.prepare(w, r, req, &explainRoute)
	if !ok {
		return
	}
	st := requestOf(r)
	var trace cssi.SearchTrace
	var meta cssi.ResponseMeta
	rs, err := s.idx.DoContext(r.Context(), cssi.SearchRequest{
		Query: c.q, K: req.K, Lambda: req.Lambda, Approx: req.Approx,
		Deadline: c.budget, Meta: &meta,
		Trace: &trace, RequestID: st.id, TraceID: st.traceID,
	})
	if err != nil {
		writeError(w, r, http.StatusBadRequest, err.Error())
		return
	}
	s.met.observeSearchStats(&trace.Total.Stats)
	m := respMetaFrom(st, &meta)
	writeJSON(w, r, http.StatusOK, explainResponse{
		Results: respond(rs, s.idx),
		Trace:   &trace,
		Meta:    &m,
	})
}

// batchRequest is the body of /search/batch: shared k/lambda/approx and
// one entry per query (each needing only coordinates plus vec or text).
type batchRequest struct {
	Queries []queryRequest `json:"queries"`
	K       int            `json:"k,omitempty"`
	Lambda  float64        `json:"lambda"`
	Approx  bool           `json:"approx,omitempty"`
	// Workers bounds the worker pool (0 = GOMAXPROCS). The server clamps
	// it to GOMAXPROCS regardless, so a client cannot request goroutine
	// amplification.
	Workers int `json:"workers,omitempty"`
	// DeadlineMs and Cache carry the /search semantics for the whole
	// batch: the budget covers the batch end to end (meta.partial
	// reports any query truncated), and the cache is probed per query —
	// only the misses execute.
	DeadlineMs int64  `json:"deadlineMs,omitempty"`
	Cache      string `json:"cache,omitempty"`
}

// maxBatchQueries caps the number of queries one /search/batch request
// may carry; larger workloads should be split client-side. Together with
// the Workers clamp this bounds the per-request goroutine count and
// keeps a single malicious POST from monopolizing the CPU.
const maxBatchQueries = 4096

func (s *Server) handleSearchBatch(w http.ResponseWriter, r *http.Request, req *batchRequest) {
	if req.K <= 0 {
		req.K = 10
	}
	if req.Lambda < 0 || req.Lambda > 1 {
		writeError(w, r, http.StatusBadRequest, "lambda must be in [0,1]")
		return
	}
	if len(req.Queries) == 0 {
		writeError(w, r, http.StatusBadRequest, "queries required")
		return
	}
	if len(req.Queries) > maxBatchQueries {
		writeError(w, r, http.StatusBadRequest,
			fmt.Sprintf("batch of %d queries exceeds the maximum of %d", len(req.Queries), maxBatchQueries))
		return
	}
	// Client-supplied parallelism is a hint, never an amplification
	// vector: clamp to the machine's GOMAXPROCS (<= 0 already selects
	// GOMAXPROCS downstream).
	if maxW := runtime.GOMAXPROCS(0); req.Workers > maxW {
		req.Workers = maxW
	}
	queries := make([]cssi.Object, len(req.Queries))
	for i := range req.Queries {
		q, err := s.buildQuery(&req.Queries[i])
		if err != nil {
			writeError(w, r, http.StatusBadRequest, fmt.Sprintf("query %d: %v", i, err))
			return
		}
		queries[i] = *q
	}
	budget, err := s.queryBudget(req.DeadlineMs)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, err.Error())
		return
	}
	cacheMode, err := cacheModeFrom(req.Cache)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, err.Error())
		return
	}
	st := requestOf(r)
	var stats cssi.Stats
	var meta cssi.ResponseMeta
	batches, err := s.idx.DoBatchContext(r.Context(), cssi.BatchSearchRequest{
		Queries: queries, K: req.K, Lambda: req.Lambda, Approx: req.Approx,
		Parallelism: req.Workers, Stats: &stats,
		Deadline: budget, Cache: cacheMode, Meta: &meta,
		RequestID: st.id, TraceID: st.traceID,
	})
	if err != nil {
		writeError(w, r, http.StatusBadRequest, err.Error())
		return
	}
	s.met.observeSearchStats(&stats)
	m := respMetaFrom(st, &meta)
	e := newEncoder()
	e.batchReply(batches, s.idx, stats.VisitedObjects, &m)
	e.send(w, r, http.StatusOK)
}

func (s *Server) handleKeywordSearch(w http.ResponseWriter, r *http.Request, req *queryRequest) {
	c, ok := s.prepare(w, r, req, &keywordRoute)
	if !ok {
		return
	}
	st := requestOf(r)
	var meta cssi.ResponseMeta
	rs, err := s.idx.DoContext(r.Context(), cssi.SearchRequest{
		Query: c.q, K: req.K, Lambda: req.Lambda, Keywords: req.Keywords,
		Deadline: c.budget, Cache: c.cache, Meta: &meta,
		RequestID: st.id, TraceID: st.traceID,
	})
	if err != nil {
		msg := err.Error()
		if errors.Is(err, cssi.ErrUnusableKeywords) {
			msg = "keywords unusable (stop words only?)"
		}
		writeError(w, r, http.StatusBadRequest, msg)
		return
	}
	s.writeResults(w, st, rs, 0, &meta)
}

// respond decorates results with object metadata for /debug/explain's
// reflected reply, as wireEncoder.results writes them.
func respond(rs []cssi.Result, objs objectSource) []resultItem {
	items := make([]resultItem, len(rs))
	for i, r := range rs {
		item := resultItem{ID: r.ID, Dist: r.Dist}
		if o, ok := objs.Object(r.ID); ok {
			item.X, item.Y, item.Text = o.X, o.Y, o.Text
		}
		items[i] = item
	}
	return items
}

// writeResults sends the reply the single-query endpoints share,
// encoded straight from the results and the index-filled meta.
func (s *Server) writeResults(w http.ResponseWriter, st *request, rs []cssi.Result, visited int64, meta *cssi.ResponseMeta) {
	m := respMetaFrom(st, meta)
	e := newEncoder()
	e.queryReply(rs, s.idx, visited, &m)
	e.send(w, st.r, http.StatusOK)
}

// objectRequest is the insert/update body.
type objectRequest struct {
	ID   uint32    `json:"id"`
	X    float64   `json:"x"`
	Y    float64   `json:"y"`
	Text string    `json:"text,omitempty"`
	Vec  []float32 `json:"vec,omitempty"`
}

func (s *Server) buildObject(req *objectRequest) (cssi.Object, error) {
	vec := req.Vec
	if vec == nil {
		if req.Text == "" || s.model == nil {
			return cssi.Object{}, fmt.Errorf("object needs vec, or text plus a server-side model")
		}
		v, ok := s.model.EncodeDocument(req.Text)
		if !ok {
			return cssi.Object{}, fmt.Errorf("text has fewer than 3 in-vocabulary words")
		}
		vec = v
	}
	if dim := s.idx.Dim(); len(vec) != dim {
		return cssi.Object{}, fmt.Errorf("vector dim %d, index expects %d", len(vec), dim)
	}
	return cssi.Object{ID: req.ID, X: req.X, Y: req.Y, Text: req.Text, Vec: vec}, nil
}

func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request, req *objectRequest) {
	o, err := s.buildObject(req)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, err.Error())
		return
	}
	err = s.idx.Insert(o)
	if err != nil {
		writeError(w, r, http.StatusConflict, err.Error())
		return
	}
	writeAck(w, r, http.StatusCreated, "id", uint64(o.ID))
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request, req *objectRequest) {
	o, err := s.buildObject(req)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, err.Error())
		return
	}
	err = s.idx.Update(o)
	if err != nil {
		writeError(w, r, http.StatusNotFound, err.Error())
		return
	}
	writeAck(w, r, http.StatusOK, "id", uint64(o.ID))
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	idStr := r.URL.Query().Get("id")
	id, err := strconv.ParseUint(idStr, 10, 32)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, "missing or invalid id")
		return
	}
	err = s.idx.Delete(uint32(id))
	if err != nil {
		writeError(w, r, http.StatusNotFound, err.Error())
		return
	}
	writeAck(w, r, http.StatusOK, "deleted", id)
}

// handleRebuild starts a background rebuild (non-blocking: readers and
// writers stay available throughout; mutations landing mid-rebuild are
// replayed before the fresh index is published). With ?wait=1 the
// response is deferred until the rebuild completes.
func (s *Server) handleRebuild(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	inner, err := s.idx.RebuildInBackground()
	if err != nil {
		writeError(w, r, http.StatusConflict, err.Error())
		return
	}
	// Observe the rebuild duration whether or not the client waits: the
	// outcome is forwarded through a fresh channel so the ?wait=1 path
	// still receives it exactly once.
	requestID := requestOf(r).id
	done := make(chan error, 1)
	go func() {
		err := <-inner
		s.met.rebuildDuration.observeDuration(time.Since(start))
		if err != nil {
			s.log.Error("rebuild failed", "requestId", requestID, "error", err)
		} else {
			s.log.Info("rebuild complete", "requestId", requestID,
				"durationMs", time.Since(start).Milliseconds(), "objects", s.idx.Len())
		}
		done <- err
	}()
	if r.URL.Query().Get("wait") == "" {
		writeJSON(w, r, http.StatusAccepted, map[string]string{"status": "rebuilding"})
		return
	}
	if err := <-done; err != nil {
		writeError(w, r, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, r, http.StatusOK, map[string]interface{}{
		"status":  "rebuilt",
		"objects": s.idx.Len(),
	})
}

// errorBody is the one JSON error envelope every non-2xx response
// carries — handler-raised and router-raised (404/405) alike — so
// clients parse a single shape: {"error":{"code","message","request_id"}}.
type errorBody struct {
	Error errorDetail `json:"error"`
}

type errorDetail struct {
	// Code is a stable machine-readable slug derived from the HTTP
	// status (bad_request, not_found, method_not_allowed, conflict,
	// internal, ...).
	Code string `json:"code"`
	// Message is the human-readable cause.
	Message string `json:"message"`
	// RequestID echoes the request's X-Request-Id so the failure can be
	// chased into the structured log.
	RequestID string `json:"request_id"`
}

// errorCode maps an HTTP status to its envelope code slug.
func errorCode(status int) string {
	switch status {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusMethodNotAllowed:
		return "method_not_allowed"
	case http.StatusConflict:
		return "conflict"
	case http.StatusInternalServerError:
		return "internal"
	default:
		return strings.ToLower(strings.ReplaceAll(http.StatusText(status), " ", "_"))
	}
}

func writeError(w http.ResponseWriter, r *http.Request, status int, msg string) {
	id := ""
	if r != nil {
		id = requestOf(r).id
	}
	writeJSON(w, r, status, errorBody{Error: errorDetail{
		Code:      errorCode(status),
		Message:   msg,
		RequestID: id,
	}})
}
