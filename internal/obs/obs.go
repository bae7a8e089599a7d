// Package obs is the search-internals observability layer: a
// zero-overhead-when-disabled per-query statistics collector the core
// CSSI/CSSIA loops fill in, and the explain-trace wire types the debug
// API returns.
//
// The design mirrors the paper's evaluation methodology (§6/§7): the
// numbers that matter for a cluster-pruning index are *read efficiency*
// — how many objects the pruning let the query skip — and the
// cluster-level examine/prune split, not just wall time. SearchStats
// captures exactly those per query; Trace ties one SearchStats per
// shard together with durations and a request ID for the scatter/gather
// path.
//
// Collection is opt-in per query: the core search scratch carries a
// *SearchStats that is nil in normal operation, and every
// instrumentation site is guarded by that nil check, so the production
// hot path pays a handful of predictable untaken branches and zero
// allocations. The cssibench "obs" experiment measures the bound
// (target: ≤2% overhead with collection on, none off).
package obs

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/metric"
)

// SearchStats is the per-query trace one CSSI/CSSIA search fills in
// when collection is enabled. It embeds the object-level work counters
// the evaluation harness already reports (metric.Stats: visited
// objects, inter-/intra-cluster pruned objects, per-space distance
// calculations, clusters examined/pruned) and adds the search-internals
// the paper argues in terms of but the counters alone cannot show.
type SearchStats struct {
	metric.Stats

	// ClustersTotal is the number of hybrid clusters in the query's
	// visit order (ClustersExamined + ClustersPruned ≤ ClustersTotal;
	// the remainder are clusters never reached because the scan ended
	// with the heap unfilled).
	ClustersTotal int64 `json:"clustersTotal"`
	// EarlyAbandons counts semantic kernels that exited before the full
	// n-dimensional sum because the partial distance already proved the
	// candidate beyond the k-NN bound.
	EarlyAbandons int64 `json:"earlyAbandons"`
	// KthDistance is the final k-NN bound U: the combined distance of
	// the worst returned result (0 when the query returned nothing).
	KthDistance float64 `json:"kthDistance"`
	// OrderNanos is wall time of the up-front ordering phase: computing
	// the centroid-level bounds and heapifying the best-first cluster
	// frontier (Alg. 2 line 4 / Alg. 3 line 5). The incremental pops the
	// lazy frontier performs are interleaved with scanning and accrue to
	// ScanNanos, the wall time of the consumption loop.
	OrderNanos int64 `json:"orderNanos"`
	ScanNanos  int64 `json:"scanNanos"`
	// QuantNanos is always zero: kept for bench/ (and the JSON clients
	// that read the key) until the benchmark-only change drops the
	// core.quant_us row.
	QuantNanos int64 `json:"quantNanos"`
	// RouteNanos is wall time spent scoring and ordering clusters with
	// the learned router — a subset of OrderNanos, not additional time.
	// Zero whenever the query ran without routing.
	RouteNanos int64 `json:"routeNanos"`
	// DeltaNanos is wall time spent scanning the snapshot's write
	// overlay (the base+delta chain). It is disjoint from ScanNanos —
	// OrderNanos + ScanNanos + DeltaNanos ≤ the query's wall time — so
	// the three add up to a phase breakdown. Zero on flat snapshots and
	// in processes that never write.
	DeltaNanos int64 `json:"deltaNanos"`
}

// Merge accumulates o into s, keeping the larger KthDistance (the
// per-shard bounds are all ≥ the merged global bound, so callers that
// need the exact global bound set it from the merged result instead).
func (s *SearchStats) Merge(o *SearchStats) {
	s.Stats.Add(&o.Stats)
	s.ClustersTotal += o.ClustersTotal
	s.EarlyAbandons += o.EarlyAbandons
	s.OrderNanos += o.OrderNanos
	s.ScanNanos += o.ScanNanos
	s.QuantNanos += o.QuantNanos
	s.RouteNanos += o.RouteNanos
	s.DeltaNanos += o.DeltaNanos
	if o.KthDistance > s.KthDistance {
		s.KthDistance = o.KthDistance
	}
}

// Reset zeroes every counter so a caller-retained SearchStats can be
// reused across queries without reallocation.
func (s *SearchStats) Reset() { *s = SearchStats{} }

// ObjectsConsidered is the number of objects the query had to account
// for: every object either visited (full distance evaluated) or skipped
// by inter- or intra-cluster pruning.
func (s *SearchStats) ObjectsConsidered() int64 {
	return s.VisitedObjects + s.InterPruned + s.IntraPruned
}

// ReadEfficiency is the paper's §6 headline metric in ratio form: the
// fraction of accounted objects the pruning let the query SKIP. 1 means
// everything was pruned, 0 means a full scan. Returns 0 when the query
// accounted for no objects.
func (s *SearchStats) ReadEfficiency() float64 {
	total := s.ObjectsConsidered()
	if total == 0 {
		return 0
	}
	return float64(s.InterPruned+s.IntraPruned) / float64(total)
}

// ClustersPrunedRatio is the fraction of ordered clusters pruned
// wholesale by the lower bound (Lemma 4.4). Returns 0 when no clusters
// were ordered.
func (s *SearchStats) ClustersPrunedRatio() float64 {
	if s.ClustersTotal == 0 {
		return 0
	}
	return float64(s.ClustersPruned) / float64(s.ClustersTotal)
}

// ShardSpan is one shard's slice of a scatter/gather query: which shard
// ran, how much of its data the search touched, and how long it took.
type ShardSpan struct {
	// Shard is the shard index in [0, NumShards).
	Shard int `json:"shard"`
	// Objects is the live object count of the shard snapshot the span
	// ran against.
	Objects int `json:"objects"`
	// Stats is the shard-local search trace.
	Stats SearchStats `json:"stats"`
	// ReadEfficiency and ClustersPrunedRatio are Stats' derived ratios,
	// precomputed so wire consumers need no arithmetic.
	ReadEfficiency      float64 `json:"readEfficiency"`
	ClustersPrunedRatio float64 `json:"clustersPrunedRatio"`
	// DurationNanos is the span's wall time, including snapshot queue
	// time inside the scatter.
	DurationNanos int64 `json:"durationNanos"`
}

// FillDerived computes the precomputed ratio fields from Stats.
func (sp *ShardSpan) FillDerived() {
	sp.ReadEfficiency = sp.Stats.ReadEfficiency()
	sp.ClustersPrunedRatio = sp.Stats.ClustersPrunedRatio()
}

// Trace is one completed request: the per-shard spans of the
// scatter/gather path plus their aggregate, tied together by a request
// ID that also appears in the server's structured logs. Traces are
// produced in two ways: on demand by SearchRequest.Trace, and always-on
// by the tail-sampling Sink every traced Do/DoBatch feeds.
type Trace struct {
	// RequestID correlates this trace with the HTTP request logs (the
	// server propagates X-Request-Id; library callers may pass "").
	RequestID string `json:"requestId"`
	// TraceID is the W3C trace-context trace ID (32 lowercase hex
	// chars) joined from the request's inbound traceparent header, or
	// "" when the request arrived without trace context.
	TraceID string `json:"traceId,omitempty"`
	// Flavor names the serving layer that recorded the trace: "index"
	// or "sharded".
	Flavor string `json:"flavor,omitempty"`
	// Op is the request kind: "search", "batch", or "keyword".
	Op string `json:"op,omitempty"`
	// Queries is the number of queries the request carried (1 for a
	// single search, the batch length for DoBatch).
	Queries int `json:"queries,omitempty"`
	// Results is the total number of results the request returned —
	// the single query's result count, or the per-query result counts
	// summed across a batch.
	Results int `json:"results,omitempty"`
	// Algo names the search algorithm: "cssi" (exact), "cssia"
	// (approximate) or "cssia-routed" (the routed approximate mode).
	Algo string `json:"algo"`
	// K and Lambda echo the query parameters.
	K      int     `json:"k"`
	Lambda float64 `json:"lambda"`
	// Shards holds one span per shard, in shard order.
	Shards []ShardSpan `json:"shards"`
	// Parallel records whether the spans ran concurrently (the
	// multi-core scatter) or back to back (the flat index and the
	// single-core bound-carrying chain). It decides which gather
	// invariant applies: sequential span durations sum to ≤
	// DurationNanos, parallel ones individually stay ≤ DurationNanos.
	Parallel bool `json:"parallel,omitempty"`
	// Total aggregates the per-shard stats; its KthDistance is the
	// merged global bound (the distance of the worst returned result).
	Total SearchStats `json:"total"`
	// ReadEfficiency and ClustersPrunedRatio are Total's derived
	// ratios.
	ReadEfficiency      float64 `json:"readEfficiency"`
	ClustersPrunedRatio float64 `json:"clustersPrunedRatio"`
	// GatherNanos is wall time of the gather merge that combines the
	// per-shard result lists. Zero for single-span traces and for the
	// chain, whose last link's answer is already the global top-k.
	GatherNanos int64 `json:"gatherNanos,omitempty"`
	// DurationNanos is the whole query's wall time including the
	// scatter fan-out and the gather merge.
	DurationNanos int64 `json:"durationNanos"`
	// StartUnixNanos timestamps the request start (Unix nanoseconds)
	// so /debug/traces consumers can order and age retained entries.
	StartUnixNanos int64 `json:"startUnixNanos,omitempty"`
	// Error carries the request's error string when it failed; the
	// tail sampler always retains errored traces.
	Error string `json:"error,omitempty"`
	// Partial marks responses truncated by the request's time budget
	// (SearchRequest.Deadline or a context deadline); always retained.
	Partial bool `json:"partial,omitempty"`
	// SampleReason records why the tail sampler retained the trace:
	// "slow", "error", "partial", or "sampled" for the deterministic
	// 1-in-N of normal traffic. Empty on traces not yet classified.
	SampleReason string `json:"sampleReason,omitempty"`
}

// Reset zeroes the trace for reuse, keeping the span slice's capacity
// so pooled traces record without reallocating.
func (t *Trace) Reset() {
	shards := t.Shards[:0]
	*t = Trace{Shards: shards}
}

// Finish aggregates the spans into Total and the derived ratios.
// kth is the merged global bound (0 when no results). Finish is
// idempotent: Total is rebuilt from the spans on every call.
func (t *Trace) Finish(kth float64, durationNanos int64) {
	t.Total.Reset()
	for i := range t.Shards {
		t.Shards[i].FillDerived()
		t.Total.Merge(&t.Shards[i].Stats)
	}
	t.Total.KthDistance = kth
	t.ReadEfficiency = t.Total.ReadEfficiency()
	t.ClustersPrunedRatio = t.Total.ClustersPrunedRatio()
	t.DurationNanos = durationNanos
}

// CheckInvariants verifies the trace's internal accounting: phase
// nanos are non-negative and respect the documented subset relations
// (RouteNanos ⊆ OrderNanos, DeltaNanos disjoint), the vestigial quant
// fields are zero, the anchor gate skipped no more rows than were
// visited, each span's phase breakdown fits inside the span's
// wall time, every span fits inside the request's wall time, and — for
// sequentially recorded spans — the span durations plus the gather
// merge sum to no more than the request duration.
func (t *Trace) CheckInvariants() error {
	checkPhases := func(what string, s *SearchStats, wall int64) error {
		for _, p := range []struct {
			name string
			v    int64
		}{
			{"orderNanos", s.OrderNanos}, {"scanNanos", s.ScanNanos},
			{"routeNanos", s.RouteNanos}, {"deltaNanos", s.DeltaNanos},
		} {
			if p.v < 0 {
				return fmt.Errorf("%s: negative %s %d", what, p.name, p.v)
			}
		}
		// Nothing writes the quant fields any more; a non-zero one means
		// a stale writer.
		if s.QuantNanos != 0 || s.QuantPruned != 0 || s.QuantReranked != 0 {
			return fmt.Errorf("%s: quantNanos %d, quantPruned %d, quantReranked %d, want all 0", what, s.QuantNanos, s.QuantPruned, s.QuantReranked)
		}
		if s.RouteNanos > s.OrderNanos {
			return fmt.Errorf("%s: routeNanos %d exceeds orderNanos %d (must be a subset)", what, s.RouteNanos, s.OrderNanos)
		}
		if wall > 0 {
			if sum := s.OrderNanos + s.ScanNanos + s.DeltaNanos; sum > wall {
				return fmt.Errorf("%s: phase sum %d exceeds wall time %d", what, sum, wall)
			}
		}
		// A visited object is anchor-pruned at most once (overlay rows are
		// visited ungated).
		if s.AnchorPruned > s.VisitedObjects {
			return fmt.Errorf("%s: anchorPruned %d exceeds visitedObjects %d", what, s.AnchorPruned, s.VisitedObjects)
		}
		return nil
	}
	var spanSum int64
	for i := range t.Shards {
		sp := &t.Shards[i]
		if sp.DurationNanos < 0 {
			return fmt.Errorf("span %d: negative duration %d", i, sp.DurationNanos)
		}
		if err := checkPhases(fmt.Sprintf("span %d (shard %d)", i, sp.Shard), &sp.Stats, sp.DurationNanos); err != nil {
			return err
		}
		if t.DurationNanos > 0 && sp.DurationNanos > t.DurationNanos {
			return fmt.Errorf("span %d (shard %d): duration %d exceeds trace duration %d", i, sp.Shard, sp.DurationNanos, t.DurationNanos)
		}
		spanSum += sp.DurationNanos
	}
	if t.GatherNanos < 0 {
		return fmt.Errorf("negative gatherNanos %d", t.GatherNanos)
	}
	if !t.Parallel && t.DurationNanos > 0 && spanSum+t.GatherNanos > t.DurationNanos {
		return fmt.Errorf("sequential span durations %d + gather %d exceed trace duration %d", spanSum, t.GatherNanos, t.DurationNanos)
	}
	return checkPhases("total", &t.Total, 0)
}

// reqCounter and reqFallbackBase drive the monotonic fallback for
// request IDs generated while the entropy source is unavailable:
// a clock-seeded base (set once) plus a process-local counter.
var (
	reqCounter      atomic.Uint64
	reqFallbackBase atomic.Uint64
)

// NewRequestID returns a short unique identifier for correlating one
// query's trace, spans, and log lines: 16 lowercase hex chars from
// crypto/rand, falling back to a monotonic clock-seeded counter in the
// same format, so downstream parsing and log grepping never see a
// second shape.
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err == nil {
		return hex.EncodeToString(b[:])
	}
	return fallbackRequestID()
}

// fallbackRequestID is NewRequestID's entropy-free path: the top bits
// come from the wall clock at first use (distinguishing processes),
// the bottom from a monotonic counter (distinguishing requests within
// one process). Same 16-hex format as the random path.
func fallbackRequestID() string {
	base := reqFallbackBase.Load()
	if base == 0 {
		seed := uint64(time.Now().UnixNano()) << 20
		if seed == 0 {
			seed = 1 << 20
		}
		reqFallbackBase.CompareAndSwap(0, seed)
		base = reqFallbackBase.Load()
	}
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], base+reqCounter.Add(1))
	return hex.EncodeToString(b[:])
}
