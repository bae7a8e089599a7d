package cssi

import (
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// This file wires the always-on tail-sampled tracer into both index
// flavors: when a trace sink is installed, every executed
// Do/DoBatch records a compact span tree — per-shard phase nanos reusing
// the existing SearchStats collection — into a pooled obs.Trace and
// hands it to the sink, whose tail sampler retains the slow, errored,
// and partial traces (plus a deterministic 1-in-N of normal traffic) in
// a lock-free ring for /debug/traces. SearchRequest.Explain and
// SearchRequest.Trace are observers of the same spans. With none of the
// three the request records nothing and pays nothing. Requests rejected
// by validation and result-cache hits never execute and so leave no
// trace.

// SetTraceSink installs sink as the always-on trace collector for this
// index's Do/DoBatch calls (nil disables tracing). Not safe to call
// concurrently with searches on a bare *Index; install before serving
// (ShardedIndex swaps atomically instead, and ShardedFrom adopts the
// sink installed here).
func (x *Index) SetTraceSink(sink *obs.Sink) { x.sink = sink }

// TraceSink returns the installed trace sink, or nil.
func (x *Index) TraceSink() *obs.Sink { return x.sink }

// SetTraceSink atomically installs sink as the always-on trace
// collector for this index's Do/DoBatch calls (nil disables). Safe to
// call concurrently with searches.
func (s *ShardedIndex) SetTraceSink(sink *obs.Sink) { s.sink.Store(sink) }

// TraceSink returns the installed trace sink, or nil.
func (s *ShardedIndex) TraceSink() *obs.Sink { return s.sink.Load() }

// algoName names the algorithm opts select, matching the explain
// path's naming: "cssi", "cssia", or "cssia-routed" (Route has no effect
// on an exact query, so it earns no suffix there).
func algoName(opts core.SearchOptions) string {
	switch {
	case !opts.Approx:
		return "cssi"
	case opts.Route:
		return "cssia-routed"
	}
	return "cssia"
}

// openTrace returns the trace a request records into, with the request
// envelope stamped and one zeroed span per searched snapshot,
// and the instant closeTrace measures from. Spans are recorded iff a
// sink, Trace or Explain asks for them: the trace is the sink's pooled
// one when a sink is installed, else the caller's own (want), else —
// Explain alone — a private one; nil when nothing asks. A trace someone
// will read gets a generated request ID when the caller brought none.
func (v *view) openTrace(want *SearchTrace, explain bool, op string, spans, queries, k int, lambda float64, opts core.SearchOptions, requestID, traceID string) (*SearchTrace, time.Time) {
	var t *SearchTrace
	switch {
	case v.sink != nil:
		t = v.sink.Get()
	case want != nil:
		t = want
		t.Reset()
	case explain:
		t = explainTraces.Get().(*SearchTrace)
		t.Reset()
	default:
		return nil, time.Time{}
	}
	t.RequestID = requestID
	if requestID == "" && (v.sink != nil || want != nil) {
		t.RequestID = obs.NewRequestID()
	}
	t.TraceID = traceID
	t.Flavor = v.flavor
	t.Op = op
	t.Queries = queries
	t.Algo = algoName(opts)
	t.K = k
	t.Lambda = lambda
	for i := 0; i < spans; i++ {
		t.Shards = append(t.Shards, SearchSpan{Shard: i, Objects: v.at(i).Len()})
	}
	start := time.Now()
	t.StartUnixNanos = start.UnixNano()
	return t, start
}

// closeTrace finalizes t (aggregate, derived ratios, error, duration)
// and hands it to its observers: the work counters and the cross-shard
// aggregate fold into the caller's Stats and Explain (both accumulate
// across requests), a caller-visible Trace that is not t itself gets a
// copy, and the sink's tail sampler (or the private-trace pool) gets t
// last — the caller must not touch t afterward, dropped traces are
// recycled immediately.
func (v *view) closeTrace(t *SearchTrace, start time.Time, results int, kth float64, partial bool, err error, st *Stats, es *ExplainStats, want *SearchTrace) {
	t.Results = results
	t.Partial = partial
	if err != nil {
		t.Error = err.Error()
	}
	t.Finish(kth, time.Since(start).Nanoseconds())
	if st != nil {
		st.Add(&t.Total.Stats)
	}
	if es != nil {
		es.Merge(&t.Total)
		es.KthDistance = t.Total.KthDistance
	}
	if want != nil && want != t {
		shards := append(want.Shards[:0], t.Shards...)
		*want = *t
		want.Shards = shards
	}
	switch {
	case v.sink != nil:
		v.sink.Finish(t)
	case want == nil:
		explainTraces.Put(t)
	}
}

// explainTraces recycles the private traces of Explain-only requests,
// so observing a query costs no allocation in steady state.
var explainTraces = sync.Pool{New: func() any { return new(SearchTrace) }}
