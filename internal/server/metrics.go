package server

import (
	"fmt"
	"math"
	"net/http"
	rtmetrics "runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/obs"
)

// metrics is a minimal, dependency-free Prometheus-style registry for
// the series the server exposes: per-endpoint request and error
// counters, latency histograms split by request class (query vs
// mutation), search-internals histograms (read efficiency and
// clusters-pruned ratio, the paper's §6 headline metrics in ratio
// form), rebuild durations, and gauges sampled at scrape time
// (per-shard state, Go runtime, process uptime). Everything on the
// request path is a plain atomic increment — no locks, no allocation —
// so instrumentation cost is invisible next to a search.
type metrics struct {
	mu        sync.Mutex // guards the endpoint map's shape (values are atomic)
	endpoints map[string]*endpointCounters

	latency            histogram // query endpoints' wall time
	mutationLatency    histogram // mutation endpoints' wall time
	rebuildDuration    histogram // background rebuild wall time
	compactionDuration histogram // overlay compaction wall time (fold through publication)
	readEfficiency     histogram // per search request: fraction of objects pruned
	clustersPruned     histogram // per search request: fraction of clusters pruned
	clustersOrdered    histogram // per search request: ordering-phase pops / clusters considered
	clustersRouted     histogram // per search request: router-placed clusters / clusters considered
	anchorPruned       histogram // per search request: visited objects skipped before any kernel / visited
	shardImbalance     histogram // per traced scatter request: max/mean shard span duration

	// sloBounds are the latency objectives (seconds, ascending) the SLO
	// block counts query and mutation requests against; sloLabels are
	// their preformatted objective label values. Set before Handler.
	sloBounds []float64
	sloLabels []string

	// imbalanceLast is the most recent max/mean shard-span ratio
	// (float64 bits), exposed as the shard-imbalance gauge.
	imbalanceLast atomic.Uint64

	// sink, when non-nil, contributes the tail sampler's lifetime counts
	// and ring occupancy to the scrape.
	sink *obs.Sink

	// admissionStats, when non-nil, samples the per-endpoint admission
	// gates (queue depth, inflight, shed counts) at scrape time; set by
	// Handler when admission control is enabled.
	admissionStats func() []gateStat

	// cacheStats, when non-nil, samples the index's result cache at
	// scrape time (ok=false until EnableResultCache); set by Handler.
	cacheStats func() (cssi.CacheStats, bool)

	start time.Time // process-uptime epoch (registry creation)
}

type endpointCounters struct {
	requests atomic.Int64
	errors   atomic.Int64
	// sloMeasured counts the query/mutation requests measured against
	// the latency objectives; sloViol has one violation counter per
	// objective (same order as metrics.sloBounds).
	sloMeasured atomic.Int64
	sloViol     []atomic.Int64
}

// Bucket upper bounds per histogram. The +Inf bucket is implicit (the
// _count series).
var (
	// latencyBuckets span sub-100µs cache-warm searches to second-scale
	// cold batches.
	latencyBuckets = []float64{
		0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
		0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5,
	}
	// mutationBuckets start at 1µs: a routed single-shard write is a
	// clone-and-publish whose cost scales with the shard size, so the
	// interesting range sits well below the query endpoints'.
	mutationBuckets = []float64{
		1e-06, 5e-06, 2.5e-05, 0.0001, 0.0005, 0.0025,
		0.01, 0.05, 0.25, 1, 2.5,
	}
	// rebuildBuckets cover per-shard K-Means + PCA reconstruction from
	// toy test indexes to multi-minute production rebuilds.
	rebuildBuckets = []float64{
		0.001, 0.005, 0.025, 0.1, 0.5, 1, 2.5, 5, 10, 30, 60,
	}
	// ratioBuckets resolve the upper end finely: a healthy CSSI query
	// prunes the vast majority of objects, so regressions show up as
	// mass shifting out of the >0.9 buckets.
	ratioBuckets = []float64{
		0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8,
		0.9, 0.95, 0.99, 0.999, 1,
	}
	// imbalanceBuckets cover the max/mean shard-span ratio: 1 is a
	// perfectly balanced scatter, 2 means the slowest shard took twice
	// the mean (the gather waits on it), and the tail flags a hot shard.
	imbalanceBuckets = []float64{
		1, 1.05, 1.1, 1.2, 1.35, 1.5, 1.75, 2, 2.5, 3, 4, 6, 8,
	}
	// defaultSLOBounds are the latency objectives (seconds) the SLO
	// block ships with: 5ms, 25ms, 100ms.
	defaultSLOBounds = []float64{0.005, 0.025, 0.1}
)

// histogram is a fixed-bucket atomic histogram. Bucket counts are
// stored NON-cumulative (each observation increments exactly one
// bucket) so concurrent observers never contend beyond one cache line;
// the exposition pass accumulates them into the cumulative form the
// Prometheus text format requires.
type histogram struct {
	bounds  []float64
	counts  []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits of the running sum, updated by CAS

	// exemplars, when enabled via initExemplars, holds the most recent
	// exemplar per bucket (last slot = +Inf), emitted on OpenMetrics
	// scrapes to tie tail buckets to recent request/trace IDs.
	exemplars []atomic.Pointer[exemplar]
}

// exemplar ties one observation to the request that produced it.
type exemplar struct {
	requestID string
	traceID   string
	value     float64
	unixSecs  float64
}

func (h *histogram) init(bounds []float64) {
	h.bounds = bounds
	h.counts = make([]atomic.Int64, len(bounds))
}

// initExemplars turns on per-bucket exemplar capture (one extra slot
// for the +Inf bucket).
func (h *histogram) initExemplars() {
	h.exemplars = make([]atomic.Pointer[exemplar], len(h.bounds)+1)
}

// bucketIndex returns the index of the bucket v falls into, with
// len(bounds) standing for +Inf.
func (h *histogram) bucketIndex(v float64) int {
	// Linear scan: ≤14 comparisons, branch-predicted, cheaper than
	// anything clever at these bucket counts.
	for i, ub := range h.bounds {
		if v <= ub {
			return i
		}
	}
	return len(h.bounds)
}

func (h *histogram) observe(v float64) {
	if i := h.bucketIndex(v); i < len(h.bounds) {
		h.counts[i].Add(1)
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// observeExemplar records v and, when exemplar capture is on and the
// observation carries an ID, stamps it as the bucket's latest exemplar.
func (h *histogram) observeExemplar(v float64, requestID, traceID string) {
	h.observe(v)
	if h.exemplars == nil || requestID == "" {
		return
	}
	h.exemplars[h.bucketIndex(v)].Store(&exemplar{
		requestID: requestID,
		traceID:   traceID,
		value:     v,
		unixSecs:  float64(time.Now().UnixNano()) / 1e9,
	})
}

func (h *histogram) observeDuration(d time.Duration) { h.observe(d.Seconds()) }

// write emits the full histogram exposition (HELP, TYPE, cumulative
// buckets, +Inf, sum, count). An empty histogram still emits every
// series — scrapers and recording rules must see the metric exist from
// the first scrape, not only after the first observation. With om set
// (an OpenMetrics scrape) each bucket line additionally carries its
// latest exemplar, pointing at the request/trace ID of a recent
// observation in that bucket.
func (h *histogram) write(b *strings.Builder, name, help string, om bool) {
	fmt.Fprintf(b, "# HELP %s %s\n", name, help)
	fmt.Fprintf(b, "# TYPE %s histogram\n", name)
	cum := int64(0)
	for i, ub := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(b, "%s_bucket{le=%q} %d", name, formatBound(ub), cum)
		h.writeExemplar(b, i, om)
		b.WriteByte('\n')
	}
	total := h.count.Load()
	fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d", name, total)
	h.writeExemplar(b, len(h.bounds), om)
	b.WriteByte('\n')
	fmt.Fprintf(b, "%s_sum %g\n", name, math.Float64frombits(h.sumBits.Load()))
	fmt.Fprintf(b, "%s_count %d\n", name, total)
}

// writeExemplar appends bucket i's exemplar in OpenMetrics syntax
// (" # {labels} value timestamp"), or nothing when exemplars are off,
// the scrape is plain Prometheus text, or the bucket has none yet.
func (h *histogram) writeExemplar(b *strings.Builder, i int, om bool) {
	if !om || h.exemplars == nil {
		return
	}
	ex := h.exemplars[i].Load()
	if ex == nil {
		return
	}
	if ex.traceID != "" {
		fmt.Fprintf(b, " # {request_id=%q,trace_id=%q} %g %.3f", ex.requestID, ex.traceID, ex.value, ex.unixSecs)
		return
	}
	fmt.Fprintf(b, " # {request_id=%q} %g %.3f", ex.requestID, ex.value, ex.unixSecs)
}

func newMetrics() *metrics {
	m := &metrics{
		endpoints: make(map[string]*endpointCounters),
		start:     time.Now(),
	}
	m.latency.init(latencyBuckets)
	m.mutationLatency.init(mutationBuckets)
	m.rebuildDuration.init(rebuildBuckets)
	// Compactions replay the shard's live set through the eager build
	// machinery — same cost regime as a rebuild, minus K-Means/PCA — so
	// they share the rebuild bucket layout.
	m.compactionDuration.init(rebuildBuckets)
	m.readEfficiency.init(ratioBuckets)
	m.clustersPruned.init(ratioBuckets)
	m.clustersOrdered.init(ratioBuckets)
	m.clustersRouted.init(ratioBuckets)
	m.anchorPruned.init(ratioBuckets)
	m.shardImbalance.init(imbalanceBuckets)
	// Query latency carries exemplars: an OpenMetrics scrape sees which
	// request/trace ID last landed in each bucket, which is the entry
	// point of the p999 chase (bucket → /debug/traces/<id>).
	m.latency.initExemplars()
	m.setSLOBoundsSeconds(defaultSLOBounds)
	return m
}

// setSLOBounds replaces the latency objectives. Bounds must be
// positive and strictly ascending. Call before the handler tree is
// built: existing endpoints' violation counters are reset to match.
func (m *metrics) setSLOBounds(objectives []time.Duration) error {
	secs := make([]float64, len(objectives))
	for i, o := range objectives {
		if o <= 0 {
			return fmt.Errorf("slo objective %v must be positive", o)
		}
		if i > 0 && objectives[i] <= objectives[i-1] {
			return fmt.Errorf("slo objectives must be strictly ascending, got %v after %v", o, objectives[i-1])
		}
		secs[i] = o.Seconds()
	}
	m.setSLOBoundsSeconds(secs)
	return nil
}

func (m *metrics) setSLOBoundsSeconds(secs []float64) {
	labels := make([]string, len(secs))
	for i, s := range secs {
		labels[i] = formatBound(s)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sloBounds = secs
	m.sloLabels = labels
	for _, c := range m.endpoints {
		c.sloViol = make([]atomic.Int64, len(secs))
	}
}

// counters returns (registering on first use) the counter set for an
// endpoint label.
func (m *metrics) counters(endpoint string) *endpointCounters {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.endpoints[endpoint]
	if !ok {
		c = &endpointCounters{sloViol: make([]atomic.Int64, len(m.sloBounds))}
		m.endpoints[endpoint] = c
	}
	return c
}

// observeTrace runs on every finished trace (the sink observer): it
// feeds the shard-imbalance series from multi-span scatters — the
// ratio of the slowest shard span to the mean span, i.e. how long the
// gather idled waiting on the straggler.
func (m *metrics) observeTrace(t *obs.Trace) {
	if len(t.Shards) < 2 {
		return
	}
	var max, sum int64
	for i := range t.Shards {
		d := t.Shards[i].DurationNanos
		sum += d
		if d > max {
			max = d
		}
	}
	if sum <= 0 {
		return
	}
	ratio := float64(max) * float64(len(t.Shards)) / float64(sum)
	m.shardImbalance.observe(ratio)
	m.imbalanceLast.Store(math.Float64bits(ratio))
}

// observeSearchStats feeds the search-internals histograms from the
// work counters a query (or query batch) already collected on the
// normal path — read efficiency is the fraction of accounted objects
// the pruning skipped, clusters-pruned the fraction of examined-or-
// pruned clusters dismissed wholesale by the Lemma 4.4 bound.
func (m *metrics) observeSearchStats(st *cssi.Stats) {
	objTotal := st.VisitedObjects + st.InterPruned + st.IntraPruned
	if objTotal > 0 {
		m.readEfficiency.observe(float64(st.InterPruned+st.IntraPruned) / float64(objTotal))
	}
	clTotal := st.ClustersExamined + st.ClustersPruned
	if clTotal > 0 {
		m.clustersPruned.observe(float64(st.ClustersPruned) / float64(clTotal))
		// Ordering-phase read efficiency: heap pops over clusters
		// considered. A re-pushed cluster pops twice, so the ratio can
		// legitimately exceed 1 — those observations land in the +Inf
		// bucket. Well below 1 means the k-NN bound cut the ordering
		// phase off long before every cluster was even ordered.
		m.clustersOrdered.observe(float64(st.ClustersOrdered) / float64(clTotal))
	}
	// Routed ratio: the fraction of considered clusters whose visit
	// position the learned router decided. Only observed when routing
	// actually ran — unrouted queries would otherwise flood the
	// histogram with zeros.
	if clTotal > 0 && st.ClustersRouted > 0 {
		m.clustersRouted.observe(float64(st.ClustersRouted) / float64(clTotal))
	}
	// Anchor-pruned ratio: of the objects the scans visited, the fraction
	// a stored lower bound excluded before any semantic kernel ran. It
	// falls as unanchored rows accumulate (cssi_shard_unanchored_rows)
	// and a rebuild restores it.
	if st.VisitedObjects > 0 {
		m.anchorPruned.observe(float64(st.AnchorPruned) / float64(st.VisitedObjects))
	}
}

// statusRecorder captures the response status so the middleware can
// count 4xx/5xx responses as errors.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(status int) {
	r.status = status
	r.ResponseWriter.WriteHeader(status)
}

// endpointKind classifies an endpoint for latency attribution:
// kindQuery feeds the search latency histogram, kindMutation the
// mutation latency histogram, kindPlain neither (probes and scrapes
// would pollute both distributions).
type endpointKind int

const (
	kindPlain endpointKind = iota
	kindQuery
	kindMutation
)

// instrument wraps a handler with request/error counting under the
// given endpoint label, recording wall time into the kind's histogram.
// Query and mutation requests are additionally measured against the
// SLO latency objectives, and query latency carries the request/trace
// ID as the bucket's exemplar.
func (m *metrics) instrument(endpoint string, kind endpointKind, h http.HandlerFunc) http.HandlerFunc {
	c := m.counters(endpoint)
	return func(w http.ResponseWriter, r *http.Request) {
		c.requests.Add(1)
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h(rec, r)
		elapsed := time.Since(start)
		switch kind {
		case kindQuery:
			m.latency.observeExemplar(elapsed.Seconds(), requestIDFrom(r.Context()), traceIDFrom(r.Context()))
		case kindMutation:
			m.mutationLatency.observe(elapsed.Seconds())
		}
		if kind != kindPlain {
			c.sloMeasured.Add(1)
			secs := elapsed.Seconds()
			for i := range m.sloBounds {
				if i < len(c.sloViol) && secs > m.sloBounds[i] {
					c.sloViol[i].Add(1)
				}
			}
		}
		if rec.status >= 400 {
			c.errors.Add(1)
		}
	}
}

// runtimeSampleNames are the runtime/metrics series exported as gauges:
// live goroutines, live heap bytes, and completed GC cycles — the
// trio that explains "the server got slow" at a glance.
var runtimeSampleNames = []string{
	"/sched/goroutines:goroutines",
	"/memory/classes/heap/objects:bytes",
	"/gc/cycles/total:gc-cycles",
}

// sampleValue renders one runtime/metrics value as a Prometheus number.
func sampleValue(v rtmetrics.Value) string {
	switch v.Kind() {
	case rtmetrics.KindUint64:
		return strconv.FormatUint(v.Uint64(), 10)
	case rtmetrics.KindFloat64:
		return strconv.FormatFloat(v.Float64(), 'g', -1, 64)
	default:
		return "0"
	}
}

// handler serves the Prometheus text exposition format (version 0.0.4)
// with only the standard library. sampler supplies the per-shard
// gauges, read fresh at every scrape; buildVersion labels
// cssi_build_info. A scrape whose Accept header asks for
// application/openmetrics-text is answered in OpenMetrics form
// instead: same series, plus per-bucket exemplars on the query latency
// histogram and a closing # EOF.
func (m *metrics) handler(sampler func() []cssi.ShardStat, buildVersion, goVersion string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		om := strings.Contains(r.Header.Get("Accept"), "application/openmetrics-text")
		var b strings.Builder

		b.WriteString("# HELP cssi_http_requests_total HTTP requests received, by endpoint.\n")
		b.WriteString("# TYPE cssi_http_requests_total counter\n")
		m.writeEndpointCounters(&b, "cssi_http_requests_total", func(c *endpointCounters) int64 { return c.requests.Load() })
		b.WriteString("# HELP cssi_http_request_errors_total HTTP responses with status >= 400, by endpoint.\n")
		b.WriteString("# TYPE cssi_http_request_errors_total counter\n")
		m.writeEndpointCounters(&b, "cssi_http_request_errors_total", func(c *endpointCounters) int64 { return c.errors.Load() })

		// SLO accounting: every query/mutation request is measured against
		// each latency objective; the violation counters split the
		// fast-enough from the too-slow per endpoint and objective.
		b.WriteString("# HELP cssi_slo_requests_total Requests measured against the latency objectives, by endpoint.\n")
		b.WriteString("# TYPE cssi_slo_requests_total counter\n")
		m.writeEndpointCounters(&b, "cssi_slo_requests_total", func(c *endpointCounters) int64 { return c.sloMeasured.Load() })
		b.WriteString("# HELP cssi_slo_violations_total Requests exceeding the latency objective, by endpoint and objective (seconds).\n")
		b.WriteString("# TYPE cssi_slo_violations_total counter\n")
		m.writeSLOViolations(&b)

		m.latency.write(&b, "cssi_search_latency_seconds",
			"Wall time of query endpoint requests.", om)
		m.mutationLatency.write(&b, "cssi_mutation_latency_seconds",
			"Wall time of mutation endpoint requests (insert/update/delete).", om)
		m.rebuildDuration.write(&b, "cssi_rebuild_duration_seconds",
			"Wall time of background index rebuilds, build through publication.", om)
		m.compactionDuration.write(&b, "cssi_compaction_duration_seconds",
			"Wall time of overlay compactions, fold through publication.", om)
		m.readEfficiency.write(&b, "cssi_search_read_efficiency",
			"Per search request: fraction of accounted objects skipped by pruning (1 = everything pruned).", om)
		m.clustersPruned.write(&b, "cssi_search_clusters_pruned_ratio",
			"Per search request: fraction of clusters dismissed wholesale by the lower-bound cut.", om)
		m.clustersOrdered.write(&b, "cssi_search_clusters_ordered_ratio",
			"Per search request: lazy ordering-phase heap pops over clusters considered (re-pushed clusters pop twice, so >1 lands in +Inf).", om)
		m.clustersRouted.write(&b, "cssi_search_clusters_routed_ratio",
			"Per search request: fraction of considered clusters placed by the learned router (observed only when routing ran).", om)
		m.anchorPruned.write(&b, "cssi_search_anchor_pruned_ratio",
			"Per search request: fraction of visited objects excluded by the anchor bound before any semantic kernel ran.", om)
		m.shardImbalance.write(&b, "cssi_shard_imbalance_ratio",
			"Per traced scatter request: slowest shard span over the mean span (1 = balanced; the gather waits on the max).", om)
		b.WriteString("# HELP cssi_shard_imbalance_last Max/mean shard span ratio of the most recent traced scatter request.\n")
		b.WriteString("# TYPE cssi_shard_imbalance_last gauge\n")
		fmt.Fprintf(&b, "cssi_shard_imbalance_last %g\n", math.Float64frombits(m.imbalanceLast.Load()))

		if m.sink != nil {
			seen, retained, sampledOut := m.sink.Counts()
			b.WriteString("# HELP cssi_traces_seen_total Traces completed by the tail sampler.\n")
			b.WriteString("# TYPE cssi_traces_seen_total counter\n")
			fmt.Fprintf(&b, "cssi_traces_seen_total %d\n", seen)
			b.WriteString("# HELP cssi_traces_retained_total Traces retained in the ring (slow, errored, partial, or 1-in-N sampled).\n")
			b.WriteString("# TYPE cssi_traces_retained_total counter\n")
			fmt.Fprintf(&b, "cssi_traces_retained_total %d\n", retained)
			b.WriteString("# HELP cssi_traces_sampled_out_total Normal traces dropped by the tail sampler and recycled.\n")
			b.WriteString("# TYPE cssi_traces_sampled_out_total counter\n")
			fmt.Fprintf(&b, "cssi_traces_sampled_out_total %d\n", sampledOut)
			b.WriteString("# HELP cssi_trace_ring_entries Retained traces currently in the ring.\n")
			b.WriteString("# TYPE cssi_trace_ring_entries gauge\n")
			fmt.Fprintf(&b, "cssi_trace_ring_entries %d\n", m.sink.Ring().Len())
			b.WriteString("# HELP cssi_trace_ring_capacity Trace ring capacity (the retained-trace memory bound).\n")
			b.WriteString("# TYPE cssi_trace_ring_capacity gauge\n")
			fmt.Fprintf(&b, "cssi_trace_ring_capacity %d\n", m.sink.Ring().Cap())
		}

		// Admission control: live gate occupancy and lifetime shed counts,
		// sampled per query endpoint. Only present once SetAdmissionLimits
		// enabled the gates.
		if m.admissionStats != nil {
			gates := m.admissionStats()
			b.WriteString("# HELP cssi_admission_inflight Requests currently executing behind the endpoint's admission gate.\n")
			b.WriteString("# TYPE cssi_admission_inflight gauge\n")
			for _, g := range gates {
				fmt.Fprintf(&b, "cssi_admission_inflight{endpoint=%q} %d\n", g.endpoint, g.inflight)
			}
			b.WriteString("# HELP cssi_admission_queue_depth Requests currently queued for an execution slot.\n")
			b.WriteString("# TYPE cssi_admission_queue_depth gauge\n")
			for _, g := range gates {
				fmt.Fprintf(&b, "cssi_admission_queue_depth{endpoint=%q} %d\n", g.endpoint, g.queued)
			}
			b.WriteString("# HELP cssi_requests_shed_total Requests shed by admission control (429 Too Many Requests), by endpoint.\n")
			b.WriteString("# TYPE cssi_requests_shed_total counter\n")
			for _, g := range gates {
				fmt.Fprintf(&b, "cssi_requests_shed_total{endpoint=%q} %d\n", g.endpoint, g.shed)
			}
		}

		// Result cache: counters sampled from the index's cache. Only
		// present once EnableResultCache installed one.
		if m.cacheStats != nil {
			if cs, ok := m.cacheStats(); ok {
				b.WriteString("# HELP cssi_result_cache_hits_total Result cache probes answered from the cache.\n")
				b.WriteString("# TYPE cssi_result_cache_hits_total counter\n")
				fmt.Fprintf(&b, "cssi_result_cache_hits_total %d\n", cs.Hits)
				b.WriteString("# HELP cssi_result_cache_misses_total Result cache probes that executed the search.\n")
				b.WriteString("# TYPE cssi_result_cache_misses_total counter\n")
				fmt.Fprintf(&b, "cssi_result_cache_misses_total %d\n", cs.Misses)
				b.WriteString("# HELP cssi_result_cache_hit_ratio Hits over probes since the cache was enabled (0 before any probe).\n")
				b.WriteString("# TYPE cssi_result_cache_hit_ratio gauge\n")
				fmt.Fprintf(&b, "cssi_result_cache_hit_ratio %g\n", cs.HitRatio())
				b.WriteString("# HELP cssi_result_cache_entries Live result cache entries.\n")
				b.WriteString("# TYPE cssi_result_cache_entries gauge\n")
				fmt.Fprintf(&b, "cssi_result_cache_entries %d\n", cs.Entries)
				b.WriteString("# HELP cssi_result_cache_invalidations_total Wholesale cache clears triggered by snapshot publications.\n")
				b.WriteString("# TYPE cssi_result_cache_invalidations_total counter\n")
				fmt.Fprintf(&b, "cssi_result_cache_invalidations_total %d\n", cs.Invalidations)
				b.WriteString("# HELP cssi_result_cache_evictions_total LRU displacements from a full cache.\n")
				b.WriteString("# TYPE cssi_result_cache_evictions_total counter\n")
				fmt.Fprintf(&b, "cssi_result_cache_evictions_total %d\n", cs.Evictions)
			}
		}

		stats := sampler()
		b.WriteString("# HELP cssi_shard_objects Live objects per shard.\n")
		b.WriteString("# TYPE cssi_shard_objects gauge\n")
		for _, st := range stats {
			fmt.Fprintf(&b, "cssi_shard_objects{shard=\"%d\"} %d\n", st.Shard, st.Objects)
		}
		b.WriteString("# HELP cssi_shard_snapshot_age_seconds Seconds since the shard last published a snapshot.\n")
		b.WriteString("# TYPE cssi_shard_snapshot_age_seconds gauge\n")
		for _, st := range stats {
			fmt.Fprintf(&b, "cssi_shard_snapshot_age_seconds{shard=\"%d\"} %g\n", st.Shard, st.SnapshotAge.Seconds())
		}
		b.WriteString("# HELP cssi_shard_snapshot_publications_total Snapshot publications per shard since build (initial publication included).\n")
		b.WriteString("# TYPE cssi_shard_snapshot_publications_total counter\n")
		for _, st := range stats {
			fmt.Fprintf(&b, "cssi_shard_snapshot_publications_total{shard=\"%d\"} %d\n", st.Shard, st.Publications)
		}
		b.WriteString("# HELP cssi_shard_delta_ops Write ops buffered in the shard snapshot's delta overlay (0 when flat or disabled).\n")
		b.WriteString("# TYPE cssi_shard_delta_ops gauge\n")
		for _, st := range stats {
			fmt.Fprintf(&b, "cssi_shard_delta_ops{shard=\"%d\"} %d\n", st.Shard, st.DeltaOps)
		}
		b.WriteString("# HELP cssi_shard_unanchored_rows Live objects inserted since the shard's last build/rebuild/load: they scan without the anchor bound until a rebuild.\n")
		b.WriteString("# TYPE cssi_shard_unanchored_rows gauge\n")
		for _, st := range stats {
			fmt.Fprintf(&b, "cssi_shard_unanchored_rows{shard=\"%d\"} %d\n", st.Shard, st.Unanchored)
		}
		b.WriteString("# HELP cssi_shard_base_age_seconds Seconds since the shard's flat base snapshot was published (moves on compactions, rebuilds, and eager writes — not overlay writes).\n")
		b.WriteString("# TYPE cssi_shard_base_age_seconds gauge\n")
		for _, st := range stats {
			fmt.Fprintf(&b, "cssi_shard_base_age_seconds{shard=\"%d\"} %g\n", st.Shard, st.BaseAge.Seconds())
		}
		b.WriteString("# HELP cssi_shard_compactions_total Completed overlay compactions per shard.\n")
		b.WriteString("# TYPE cssi_shard_compactions_total counter\n")
		for _, st := range stats {
			fmt.Fprintf(&b, "cssi_shard_compactions_total{shard=\"%d\"} %d\n", st.Shard, st.Compactions)
		}

		samples := make([]rtmetrics.Sample, len(runtimeSampleNames))
		for i, name := range runtimeSampleNames {
			samples[i].Name = name
		}
		rtmetrics.Read(samples)
		b.WriteString("# HELP cssi_go_goroutines Live goroutines.\n")
		b.WriteString("# TYPE cssi_go_goroutines gauge\n")
		fmt.Fprintf(&b, "cssi_go_goroutines %s\n", sampleValue(samples[0].Value))
		b.WriteString("# HELP cssi_go_heap_objects_bytes Bytes of live heap objects.\n")
		b.WriteString("# TYPE cssi_go_heap_objects_bytes gauge\n")
		fmt.Fprintf(&b, "cssi_go_heap_objects_bytes %s\n", sampleValue(samples[1].Value))
		b.WriteString("# HELP cssi_go_gc_cycles_total Completed GC cycles.\n")
		b.WriteString("# TYPE cssi_go_gc_cycles_total counter\n")
		fmt.Fprintf(&b, "cssi_go_gc_cycles_total %s\n", sampleValue(samples[2].Value))

		b.WriteString("# HELP cssi_build_info Build metadata; value is always 1.\n")
		b.WriteString("# TYPE cssi_build_info gauge\n")
		fmt.Fprintf(&b, "cssi_build_info{version=%q,goversion=%q} 1\n", buildVersion, goVersion)
		b.WriteString("# HELP cssi_process_uptime_seconds Seconds since the server's metrics registry was created.\n")
		b.WriteString("# TYPE cssi_process_uptime_seconds gauge\n")
		fmt.Fprintf(&b, "cssi_process_uptime_seconds %g\n", time.Since(m.start).Seconds())

		contentType := "text/plain; version=0.0.4; charset=utf-8"
		if om {
			b.WriteString("# EOF\n")
			contentType = "application/openmetrics-text; version=1.0.0; charset=utf-8"
		}
		w.Header().Set("Content-Type", contentType)
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte(b.String()))
	}
}

// writeSLOViolations emits one series per endpoint × objective in
// sorted endpoint order.
func (m *metrics) writeSLOViolations(b *strings.Builder) {
	m.mu.Lock()
	labels := make([]string, 0, len(m.endpoints))
	for ep := range m.endpoints {
		labels = append(labels, ep)
	}
	sort.Strings(labels)
	counters := make([]*endpointCounters, len(labels))
	for i, ep := range labels {
		counters[i] = m.endpoints[ep]
	}
	objectives := m.sloLabels
	m.mu.Unlock()
	for i, ep := range labels {
		for j, obj := range objectives {
			if j >= len(counters[i].sloViol) {
				break
			}
			fmt.Fprintf(b, "cssi_slo_violations_total{endpoint=%q,objective=%q} %d\n", ep, obj, counters[i].sloViol[j].Load())
		}
	}
}

// writeEndpointCounters emits one series per endpoint in sorted label
// order (Prometheus does not require it, but deterministic output makes
// the endpoint scrapeable by tests).
func (m *metrics) writeEndpointCounters(b *strings.Builder, name string, get func(*endpointCounters) int64) {
	m.mu.Lock()
	labels := make([]string, 0, len(m.endpoints))
	for ep := range m.endpoints {
		labels = append(labels, ep)
	}
	sort.Strings(labels)
	counters := make([]*endpointCounters, len(labels))
	for i, ep := range labels {
		counters[i] = m.endpoints[ep]
	}
	m.mu.Unlock()
	for i, ep := range labels {
		fmt.Fprintf(b, "%s{endpoint=%q} %d\n", name, ep, get(counters[i]))
	}
}

// formatBound renders a bucket bound the way Prometheus clients do:
// the shortest representation that round-trips, so 0.0001 stays
// "0.0001" and 1e-06 stays "1e-06" (the old %.5f formatting truncated
// any bound below 1e-5 to "0", which collides with a genuine zero
// bound and breaks scrapers that parse le as a float key).
func formatBound(ub float64) string {
	return strconv.FormatFloat(ub, 'g', -1, 64)
}
