package experiments

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	cssi "repro"
	"repro/internal/knn"
	"repro/internal/obs"
)

func init() {
	register("obs", Observability)
}

// obsTrials is how many alternating off/on timing trials the overhead
// table runs; each mode reports its fastest trial (min-of-N rejects
// scheduler noise, the standard microbenchmark discipline).
const obsTrials = 5

// Observability quantifies the cost of the search-internals
// instrumentation (internal/obs). Two tables:
//
//  1. Collection overhead — the same exact query workload through Do
//     without Explain (obs pointer nil: every instrumentation site an
//     untaken branch) and with it (collection on). Reported per mode: µs/query (min of
//     alternating trials) and heap allocs/query. The disabled path
//     must stay zero-alloc and the enabled path should cost ≤2% — the
//     design target of threading a nil-checked pointer through the
//     pooled scratch instead of wrapping the algorithms.
//  2. Always-on tracing overhead — the same workload through Do with
//     no trace sink versus Do with the tail-sampling sink installed
//     (production default: every query records a span tree, 1-in-128
//     of normal traffic retained). Target: <1% added latency.
func Observability(s Setup) ([]Table, error) {
	s.applyDefaults()
	overhead, err := obsOverheadTable(s)
	if err != nil {
		return nil, err
	}
	tracing, err := obsTracingTable(s)
	if err != nil {
		return nil, err
	}
	return []Table{overhead, tracing}, nil
}

// obsTracingTable measures the cost of the always-on tracer on the
// library's serving entry point: the identical exact-query workload
// through Index.Do without a trace sink (the pre-tracing fast path)
// and with the production-default tail-sampling sink installed. The
// traced path pays one pooled Trace per query, the span's phase
// collection, and the retention decision; the target is <1% added
// latency.
func obsTracingTable(s Setup) (Table, error) {
	idx, queries, err := obsFlatIndex(s)
	if err != nil {
		return Table{}, err
	}
	k, lambda := s.K, s.Lambda

	sink := obs.NewSink(obs.SinkConfig{BufferSize: 256})
	// The workload models the serving layer: every request carries a
	// pre-minted request ID (the HTTP middleware mints one with or
	// without tracing) and a Stats sink (every /search response reports
	// visited counts), so both modes pay the per-object counters and
	// the measured delta is the tracer's own cost — the pooled span,
	// the phase-timing stamps, and the tail-sampling decision.
	ids := make([]string, len(queries))
	for i := range ids {
		ids[i] = obs.NewRequestID()
	}
	var st cssi.Stats
	runWorkload := func(traced bool) {
		if traced {
			idx.SetTraceSink(sink)
		} else {
			idx.SetTraceSink(nil)
		}
		for qi := range queries {
			if _, err := idx.Do(cssi.SearchRequest{
				Query: &queries[qi], K: k, Lambda: lambda,
				Stats: &st, RequestID: ids[qi],
			}); err != nil {
				panic(err)
			}
		}
	}
	runWorkload(false)
	runWorkload(true)

	// The tracer's cost is a few µs against ~1ms queries, so comparing
	// each mode's independent minimum is dominated by machine drift
	// between trials (CPU frequency, steal time). Instead each trial
	// times the two modes back to back — drift inside one short pair
	// mostly hits both sides — and the reported overhead is the MEDIAN
	// of the per-trial on/off ratios over many pairs: single
	// interference bursts cannot move it, and with tracingPairs pairs
	// the median's remaining noise is well under the smoke gate. The
	// µs columns still report each mode's fastest trial.
	const tracingPairs = 8 * obsTrials
	nq := float64(len(queries))
	micros := map[bool]float64{}
	ratios := make([]float64, 0, tracingPairs)
	measure := func(traced bool) float64 {
		runtime.GC()
		start := time.Now()
		runWorkload(traced)
		elapsed := float64(time.Since(start).Microseconds()) / nq
		if v, ok := micros[traced]; !ok || elapsed < v {
			micros[traced] = elapsed
		}
		return elapsed
	}
	for trial := 0; trial < tracingPairs; trial++ {
		// Alternate which mode runs first so a steady within-pair drift
		// cancels across trials instead of biasing one mode.
		first := trial%2 == 0
		a := measure(first)
		b := measure(!first)
		on, off := a, b
		if !first {
			on, off = b, a
		}
		if off > 0 {
			ratios = append(ratios, on/off)
		}
	}
	idx.SetTraceSink(nil)

	sort.Float64s(ratios)
	overheadPct := 0.0
	if n := len(ratios); n > 0 {
		mid := ratios[n/2]
		if n%2 == 0 {
			mid = (ratios[n/2-1] + ratios[n/2]) / 2
		}
		overheadPct = 100 * (mid - 1)
	}
	seen, retained, _ := sink.Counts()
	return Table{
		ID:    "obs",
		Title: "Always-on tracing overhead (Index.Do, exact queries)",
		Note: "off = Do with no trace sink; on = Do with the production-default tail-sampling sink " +
			"(span tree per query, slow/errored always retained + 1-in-128 of normal traffic); " +
			"overhead is the median of paired per-trial on/off ratios — target <1% added latency",
		Header: []string{"tracing", "µs/query", "traces seen", "retained", "overhead"},
		Rows: [][]string{
			{"off", f1(micros[false]), "-", "-", "-"},
			{"on", f1(micros[true]), itoa(int(seen)), itoa(int(retained)), fmt.Sprintf("%.2f%%", overheadPct)},
		},
	}, nil
}

// obsFlatIndex builds the flat index and query workload the two
// overhead tables share.
func obsFlatIndex(s Setup) (*cssi.Index, []cssi.Object, error) {
	size := s.twitterDefault()
	ds, err := cssi.GenerateDataset(cssi.DatasetConfig{
		Kind: cssi.TwitterLike, Size: size, Dim: s.Dim, Seed: s.Seed + uint64(size),
	})
	if err != nil {
		return nil, nil, err
	}
	idx, err := cssi.Build(ds, cssi.Options{Seed: s.Seed})
	if err != nil {
		return nil, nil, err
	}
	return idx, ds.SampleQueries(s.Queries, s.Seed+11), nil
}

func obsOverheadTable(s Setup) (Table, error) {
	idx, queries, err := obsFlatIndex(s)
	if err != nil {
		return Table{}, err
	}
	k, lambda := s.K, s.Lambda

	// runWorkload executes every query once through Do, with or without
	// the Explain observer, reusing one result buffer and one
	// SearchStats; the un-explained mode must be allocation-free.
	dst := make([]knn.Result, 0, k)
	var es obs.SearchStats
	runWorkload := func(explain bool) {
		for qi := range queries {
			req := cssi.SearchRequest{Query: &queries[qi], K: k, Lambda: lambda, Dst: dst[:0]}
			if explain {
				req.Explain = &es
			}
			var err error
			if dst, err = idx.Do(req); err != nil {
				panic(err)
			}
		}
	}
	// Warm both paths (scratch pool, caches) before any measurement.
	runWorkload(false)
	runWorkload(true)

	nq := float64(len(queries))
	micros := map[bool]float64{false: 0, true: 0}
	allocs := map[bool]float64{false: 0, true: 0}
	var ms0, ms1 runtime.MemStats
	for trial := 0; trial < obsTrials; trial++ {
		for _, explain := range []bool{false, true} {
			runtime.GC()
			runtime.ReadMemStats(&ms0)
			start := time.Now()
			runWorkload(explain)
			elapsed := float64(time.Since(start).Microseconds()) / nq
			runtime.ReadMemStats(&ms1)
			if trial == 0 || elapsed < micros[explain] {
				micros[explain] = elapsed
			}
			perQ := float64(ms1.Mallocs-ms0.Mallocs) / nq
			if trial == 0 || perQ < allocs[explain] {
				allocs[explain] = perQ
			}
		}
	}

	overheadPct := 0.0
	if micros[false] > 0 {
		overheadPct = 100 * (micros[true] - micros[false]) / micros[false]
	}
	t := Table{
		ID:    "obs",
		Title: "Search-internals collection overhead (exact CSSI queries)",
		Note: "collection off = Do (nil obs pointer, every instrumentation site an untaken branch); " +
			"on = Do with SearchRequest.Explain; min of alternating trials — target ≤2% overhead, 0 allocs off",
		Header: []string{"collection", "µs/query", "allocs/query", "overhead"},
		Rows: [][]string{
			{"off", f1(micros[false]), f2(allocs[false]), "-"},
			{"on", f1(micros[true]), f2(allocs[true]), fmt.Sprintf("%.2f%%", overheadPct)},
		},
	}
	return t, nil
}
