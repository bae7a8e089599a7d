package experiments

import (
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/metric"
)

func init() {
	register("batch", Batch)
}

// Batch measures the built-in Index.SearchBatch entry point (bounded
// worker pool, per-worker work counters) against the naive
// sequential loop, for both CSSI and CSSIA. Where the "parallel"
// experiment hand-rolls a channel fan-out over Search, this one
// exercises the production batched path: the interesting deltas are the
// scaling with workers and the allocation-free steady state (visible as
// higher queries/s at equal worker count).
func Batch(s Setup) ([]Table, error) {
	s.applyDefaults()
	e, err := buildEnv(s, envConfig{kind: dataset.TwitterLike, size: s.twitterDefault()})
	if err != nil {
		return nil, err
	}
	// A bigger batch than the default workload so the fan-out has work.
	queries := e.ds.SampleQueries(8*s.Queries, s.Seed+31)

	t := Table{
		ID:     "batch",
		Title:  "SearchBatch throughput vs workers (CSSI and CSSIA)",
		Note:   "sequential row is the plain per-query loop; visited objects per query must not depend on the worker count",
		Header: []string{"algorithm", "workers", "total ms", "speedup", "queries/s", "visited/query"},
	}

	for _, approx := range []bool{false, true} {
		name := "CSSI"
		if approx {
			name = "CSSIA"
		}

		// Sequential baseline: the plain single-query entry point.
		var seqStats metric.Stats
		start := time.Now()
		for qi := range queries {
			if approx {
				e.idx.SearchApprox(&queries[qi], s.K, s.Lambda, &seqStats)
			} else {
				e.idx.Search(&queries[qi], s.K, s.Lambda, &seqStats)
			}
		}
		base := msSince(start)
		t.Rows = append(t.Rows, batchRow(name+" sequential", 1, base, base, len(queries), &seqStats))

		maxWorkers := runtime.GOMAXPROCS(0)
		for workers := 1; workers <= maxWorkers; workers *= 2 {
			var st metric.Stats
			start := time.Now()
			if _, err := e.idx.SearchBatch(queries, s.K, s.Lambda, workers, core.SearchOptions{Approx: approx}, &st, nil); err != nil {
				return nil, err
			}
			ms := msSince(start)
			t.Rows = append(t.Rows, batchRow(name+" batch", workers, ms, base, len(queries), &st))
		}
	}
	return []Table{t}, nil
}

func msSince(start time.Time) float64 {
	return float64(time.Since(start).Microseconds()) / 1000
}

func batchRow(name string, workers int, ms, base float64, nq int, st *metric.Stats) []string {
	return []string{
		name, itoa(workers), f1(ms), f2(base / ms),
		f1(float64(nq) / (ms / 1000)),
		f1(float64(st.VisitedObjects) / float64(nq)),
	}
}
