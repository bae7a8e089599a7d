package server

import (
	"net/http"
	"strconv"

	"repro/internal/obs"
)

// maxTraceListLimit caps ?limit on /debug/traces; the fetch-by-ID
// endpoint serves full span trees, the list serves summaries.
const maxTraceListLimit = 1000

// traceSummary is one row of GET /debug/traces: the trace envelope
// without the per-shard span bodies (fetch /debug/traces/{id} for the
// full tree).
type traceSummary struct {
	RequestID      string  `json:"requestId"`
	TraceID        string  `json:"traceId,omitempty"`
	Flavor         string  `json:"flavor,omitempty"`
	Op             string  `json:"op,omitempty"`
	Algo           string  `json:"algo"`
	K              int     `json:"k"`
	Lambda         float64 `json:"lambda"`
	Queries        int     `json:"queries,omitempty"`
	Shards         int     `json:"shards"`
	Parallel       bool    `json:"parallel,omitempty"`
	DurationNanos  int64   `json:"durationNanos"`
	GatherNanos    int64   `json:"gatherNanos,omitempty"`
	StartUnixNanos int64   `json:"startUnixNanos,omitempty"`
	SampleReason   string  `json:"sampleReason,omitempty"`
	Error          string  `json:"error,omitempty"`
	Partial        bool    `json:"partial,omitempty"`
}

// tracesResponse is the body of GET /debug/traces.
type tracesResponse struct {
	Enabled bool `json:"enabled"`
	// Policy echo: ring capacity, always-retain threshold, 1-in-N rate.
	Capacity           int   `json:"capacity,omitempty"`
	SlowThresholdNanos int64 `json:"slowThresholdNanos,omitempty"`
	SampleEvery        int   `json:"sampleEvery,omitempty"`
	// Lifetime totals from the tail sampler.
	Seen       uint64 `json:"seen"`
	Retained   uint64 `json:"retained"`
	SampledOut uint64 `json:"sampledOut"`
	// Traces lists retained traces newest-first.
	Traces []traceSummary `json:"traces"`
}

func summarize(t *obs.Trace) traceSummary {
	return traceSummary{
		RequestID:      t.RequestID,
		TraceID:        t.TraceID,
		Flavor:         t.Flavor,
		Op:             t.Op,
		Algo:           t.Algo,
		K:              t.K,
		Lambda:         t.Lambda,
		Queries:        t.Queries,
		Shards:         len(t.Shards),
		Parallel:       t.Parallel,
		DurationNanos:  t.DurationNanos,
		GatherNanos:    t.GatherNanos,
		StartUnixNanos: t.StartUnixNanos,
		SampleReason:   t.SampleReason,
		Error:          t.Error,
		Partial:        t.Partial,
	}
}

// handleTraces lists the retained traces newest-first as summaries,
// with the sampler's policy and lifetime counts. ?limit=N bounds the
// list (default 100, max 1000).
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	if s.sink == nil {
		writeJSON(w, r, http.StatusOK, tracesResponse{Enabled: false, Traces: []traceSummary{}})
		return
	}
	limit := 100
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			writeError(w, r, http.StatusBadRequest, "limit must be a positive integer")
			return
		}
		limit = min(n, maxTraceListLimit)
	}
	seen, retained, sampledOut := s.sink.Counts()
	traces := s.sink.Ring().Snapshot(limit)
	resp := tracesResponse{
		Enabled:            true,
		Capacity:           s.sink.Ring().Cap(),
		SlowThresholdNanos: s.sink.SlowThreshold().Nanoseconds(),
		SampleEvery:        s.sink.SampleEvery(),
		Seen:               seen,
		Retained:           retained,
		SampledOut:         sampledOut,
		Traces:             make([]traceSummary, len(traces)),
	}
	for i, t := range traces {
		resp.Traces[i] = summarize(t)
	}
	writeJSON(w, r, http.StatusOK, resp)
}

// handleTraceByID serves one retained trace's full span tree, looked
// up by request ID or W3C trace ID.
func (s *Server) handleTraceByID(w http.ResponseWriter, r *http.Request) {
	if s.sink == nil {
		writeError(w, r, http.StatusNotFound, "tracing disabled")
		return
	}
	id := r.PathValue("id")
	t := s.sink.Ring().Lookup(id)
	if t == nil {
		writeError(w, r, http.StatusNotFound, "no retained trace with id "+id)
		return
	}
	writeJSON(w, r, http.StatusOK, map[string]*obs.Trace{"trace": t})
}
