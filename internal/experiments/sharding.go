package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	cssi "repro"
)

func init() {
	register("sharded", Sharding)
}

// shardedWriterIDBase spaces each writer goroutine's private ID range
// far above any generated dataset ID.
const shardedWriterIDBase = 1 << 30

// servingClients is the closed-loop client count in the serving-mix
// table; writesPerQuery is its ingest weight — every 64-query batch a
// client issues is accompanied by 64*writesPerQuery single-op writes,
// the write-heavy live-stream shape (think a geo-tagged firehose with
// periodic semantic queries over it).
const (
	servingClients = 4
	writesPerQuery = 4
)

// mixedWriters is the writer count in the saturated mixed table.
const mixedWriters = 4

// Sharding quantifies what hash-partitioning the concurrency layer buys
// on a serving workload. The copy-on-write snapshot wrapper charges
// every single-op write an O(n) metadata clone; P shards cut that to
// O(n/P) and let writes to distinct shards publish concurrently, while
// exact scatter/gather reads stay bit-identical to the unsharded index
// (on a single-core host the scatter runs sequentially with the k-NN
// bound carried shard to shard, so the read does the same object-level
// work as a flat scan). Three measurements:
//
//  1. Saturated single-op write throughput by shard count — the direct
//     effect of the smaller clone.
//  2. Batched-search throughput in a closed-loop write-heavy serving
//     mix: each client alternates one 64-query exact batch with a fixed
//     multiple of single-op writes, so the CPU the clones burn comes
//     straight out of query throughput. Closed-loop coupling (YCSB
//     style) makes the measurement work-conserving — no pacing, no
//     scheduler-fairness artifacts.
//  3. Saturated write-heavy mixed throughput — both sides run flat out
//     and the combined operation rate shows the end-to-end serving
//     capacity under live ingestion.
//
// All numbers come from one process timesharing the host (GOMAXPROCS
// raised as in the concurrency experiment so the scheduler interleaves
// at its quantum); speedups are therefore algorithmic — less work per
// write — not parallel hardware.
func Sharding(s Setup) ([]Table, error) {
	s.applyDefaults()
	if prev := runtime.GOMAXPROCS(0); prev < 4 {
		runtime.GOMAXPROCS(4)
		defer runtime.GOMAXPROCS(prev)
	}
	size := s.size(20000)
	ds, err := cssi.GenerateDataset(cssi.DatasetConfig{
		Kind: cssi.TwitterLike, Size: size, Dim: s.Dim, Seed: s.Seed,
	})
	if err != nil {
		return nil, err
	}
	// A fixed 64-query batch, the /search/batch serving shape.
	batch := ds.SampleQueries(64, s.Seed+77)
	k, lambda := 10, s.Lambda

	interval, warmup := 1500*time.Millisecond, 300*time.Millisecond
	if s.Scale < 0.5 {
		interval, warmup = 50*time.Millisecond, 5*time.Millisecond
	}
	shardCounts := []int{1, 2, 4, 8}
	build := func(p int) (*cssi.ShardedIndex, error) {
		return cssi.BuildSharded(ds, p, cssi.Options{Seed: s.Seed})
	}

	writes := Table{
		ID:    "sharded",
		Title: "Saturated single-op write throughput by shard count",
		Note: "2 writers apply insert/delete ops back-to-back; each op clones only its owning shard's " +
			"O(n/P) metadata before publishing, so throughput should scale roughly with the shard count",
		Header: []string{"shards", "writers", "write ops/s", "speedup"},
	}
	var writeBase float64
	for _, p := range shardCounts {
		idx, err := build(p)
		if err != nil {
			return nil, err
		}
		ops := measureShardedWrites(idx, ds, 2, warmup, interval)
		if p == 1 {
			writeBase = ops
		}
		writes.Rows = append(writes.Rows, []string{
			itoa(p), "2", f1(ops), speedupCell(ops, writeBase),
		})
	}

	serving := Table{
		ID:    "sharded",
		Title: "Batched-search throughput in a write-heavy serving mix",
		Note: fmt.Sprintf("%d closed-loop clients each alternate one 64-query exact batch with %d single-op "+
			"writes per query (a live-ingestion mix); every clone cycle the writes save is CPU the "+
			"queries get back", servingClients, writesPerQuery),
		Header: []string{"shards", "batched queries/s", "write ops/s", "speedup (queries/s)"},
	}
	var readBase float64
	for _, p := range shardCounts {
		idx, err := build(p)
		if err != nil {
			return nil, err
		}
		qps, wps := measureShardedServingLoop(idx, ds, batch, k, lambda, warmup, interval)
		if p == 1 {
			readBase = qps
		}
		serving.Rows = append(serving.Rows, []string{
			itoa(p), f1(qps), f1(wps), speedupCell(qps, readBase),
		})
	}

	mixed := Table{
		ID:    "sharded",
		Title: fmt.Sprintf("Saturated write-heavy mixed throughput (%d writers : 1 reader)", mixedWriters),
		Note: "one reader loops 64-query exact batches while the writers apply single ops, all flat out — " +
			"the live-ingestion serving shape; combined ops/s is dominated by the write side, whose per-op " +
			"cost shrinks with the shard count",
		Header: []string{"shards", "batched queries/s", "write ops/s", "combined ops/s", "speedup"},
	}
	var mixedBase float64
	for _, p := range shardCounts {
		idx, err := build(p)
		if err != nil {
			return nil, err
		}
		qps, wps := measureShardedMixed(idx, ds, batch, k, lambda, warmup, interval)
		combined := qps + wps
		if p == 1 {
			mixedBase = combined
		}
		mixed.Rows = append(mixed.Rows, []string{
			itoa(p), f1(qps), f1(wps), f1(combined), speedupCell(combined, mixedBase),
		})
	}
	return []Table{writes, serving, mixed}, nil
}

func speedupCell(v, base float64) string {
	if base == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.2fx", v/base)
}

// shardedWriter loops net-zero single-op writes (insert then delete,
// private ID range per writer) until stop, optionally pacing itself to
// opEvery between ops (0 = saturated). Completed ops are counted into
// ops as they happen, so callers can snapshot the counter mid-run.
func shardedWriter(idx *cssi.ShardedIndex, ds *cssi.Dataset, writer int, stop *atomic.Bool, opEvery time.Duration, ops *atomic.Int64) {
	next := time.Now()
	for i := 0; !stop.Load(); i++ {
		if opEvery > 0 {
			next = next.Add(opEvery)
			if d := time.Until(next); d > 0 {
				time.Sleep(d)
			}
		}
		// Even iterations insert a fresh ID, odd iterations delete it
		// again, so the index size stays put for the whole run.
		id := uint32(shardedWriterIDBase + writer*1_000_000 + (i/2)%1000)
		if i%2 == 0 {
			o := ds.Objects[(writer*31+i)%ds.Len()]
			o.ID = id
			if idx.Insert(o) == nil {
				ops.Add(1)
			}
		} else if idx.Delete(id) == nil {
			ops.Add(1)
		}
	}
}

// window lets every measurement discard its warmup: it snapshots the
// live counters after the warmup, sleeps the measured interval, and
// returns each counter's delta divided by the measured wall time.
func window(warmup, interval time.Duration, counters ...*atomic.Int64) []float64 {
	time.Sleep(warmup)
	base := make([]int64, len(counters))
	for i, c := range counters {
		base[i] = c.Load()
	}
	start := time.Now()
	time.Sleep(interval)
	secs := time.Since(start).Seconds()
	rates := make([]float64, len(counters))
	for i, c := range counters {
		rates[i] = float64(c.Load()-base[i]) / secs
	}
	return rates
}

// measureShardedWrites runs `writers` saturated writer goroutines and
// returns aggregate ops/s over the post-warmup window.
func measureShardedWrites(idx *cssi.ShardedIndex, ds *cssi.Dataset, writers int, warmup, interval time.Duration) float64 {
	runtime.GC()
	var stop atomic.Bool
	var total atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			shardedWriter(idx, ds, w, &stop, 0, &total)
		}(w)
	}
	rates := window(warmup, interval, &total)
	stop.Store(true)
	wg.Wait()
	return rates[0]
}

// measureShardedServingLoop runs servingClients closed-loop clients.
// Each client cycle issues len(batch)*writesPerQuery single-op writes
// (net-zero insert/delete pairs in a client-private ID range) followed
// by one exact batched search, and returns (batched queries/s, write
// ops/s) over the post-warmup window. Because every client must finish
// its writes before it may query again, CPU spent on clones translates
// directly into lost query throughput — the coupling a real ingesting
// service experiences.
func measureShardedServingLoop(idx *cssi.ShardedIndex, ds *cssi.Dataset,
	batch []cssi.Object, k int, lambda float64, warmup, interval time.Duration) (float64, float64) {

	runtime.GC()
	var stop atomic.Bool
	var queries, writes atomic.Int64
	var wg sync.WaitGroup
	pairs := len(batch) * writesPerQuery / 2
	for c := 0; c < servingClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				for j := 0; j < pairs; j++ {
					id := uint32(shardedWriterIDBase + c*1_000_000 + j%1000)
					o := ds.Objects[(c*31+i+j)%ds.Len()]
					o.ID = id
					if idx.Insert(o) == nil {
						writes.Add(1)
					}
					if idx.Delete(id) == nil {
						writes.Add(1)
					}
				}
				// parallelism 1 per shard: the scatter itself is the only
				// fan-out, keeping the goroutine count low on a timeshared
				// core.
				if _, err := idx.DoBatch(cssi.BatchSearchRequest{Queries: batch, K: k, Lambda: lambda, Parallelism: 1}); err == nil {
					queries.Add(int64(len(batch)))
				}
			}
		}(c)
	}
	rates := window(warmup, interval, &queries, &writes)
	stop.Store(true)
	wg.Wait()
	return rates[0], rates[1]
}

// measureShardedMixed runs 1 saturated reader (batched search) and
// mixedWriters saturated writers — the write-heavy live-ingestion
// serving shape — and returns (batched queries/s, write ops/s) over the
// post-warmup window.
func measureShardedMixed(idx *cssi.ShardedIndex, ds *cssi.Dataset,
	batch []cssi.Object, k int, lambda float64, warmup, interval time.Duration) (float64, float64) {

	runtime.GC()
	var stop atomic.Bool
	var queries, writes atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			if _, err := idx.DoBatch(cssi.BatchSearchRequest{Queries: batch, K: k, Lambda: lambda, Parallelism: 1}); err == nil {
				queries.Add(int64(len(batch)))
			}
		}
	}()
	for w := 0; w < mixedWriters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			shardedWriter(idx, ds, w, &stop, 0, &writes)
		}(w)
	}
	rates := window(warmup, interval, &queries, &writes)
	stop.Store(true)
	wg.Wait()
	return rates[0], rates[1]
}
