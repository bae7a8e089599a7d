package experiments

import (
	"fmt"
	"sort"
	"time"

	cssi "repro"
)

func init() {
	register("overlay", Overlay)
}

// Overlay measures what the delta-overlay write path buys over the
// eager copy-on-write baseline it replaced: per-operation write latency
// through a one-shard ShardedIndex over a large corpus. The eager path pays O(n)
// per op (cloning the deleted bitset, the id→index map, the radius
// arrays, and the touched member directories before mutating), the
// overlay path pays for what the op touches (its clone shares the
// overlay with the snapshot it came from). The run also re-verifies the
// overlay's correctness contract in situ: exact base+delta search must
// be bit-identical both to the same wrapper after an explicit Compact
// and to an eager wrapper that applied the identical op stream.
func Overlay(s Setup) ([]Table, error) {
	s.applyDefaults()
	size := s.size(100000)
	ds, err := cssi.GenerateDataset(cssi.DatasetConfig{
		Kind: cssi.TwitterLike, Size: size, Dim: s.Dim, Seed: s.Seed,
	})
	if err != nil {
		return nil, err
	}
	nq := s.Queries
	if nq > 25 {
		nq = 25
	}
	queries := ds.SampleQueries(nq, s.Seed+33)
	k := 10

	// Sub-scale runs (the CI smoke) shrink the op stream; the recorded
	// scale-1 numbers use the long one for stable percentiles.
	nOps := 500
	if s.Scale < 0.5 {
		nOps = 120
	}

	// Two independent builds of the same dataset+seed are identical, so
	// after applying the same op stream the wrappers must answer exact
	// queries identically — the differential oracle below relies on it.
	modes := []struct {
		name      string
		threshold int
	}{
		{"eager COW", cssi.DeltaDisabled},
		{"delta overlay", 0}, // library default threshold
	}
	lat := Table{
		ID:    "overlay",
		Title: "Single-op write latency: eager copy-on-write vs delta overlay",
		Note: fmt.Sprintf("%d objects, %d single-op ApplyBatch calls (insert/update/delete mix) per wrapper; "+
			"eager clones the full per-object state on every op, the overlay buffers ops in a small delta "+
			"and folds it into a fresh base in the background past the compaction threshold", size, nOps),
		Header: []string{"write path", "ops", "p50 µs", "p95 µs", "max µs", "mean µs"},
	}
	wrappers := make(map[string]*cssi.ShardedIndex, len(modes))
	medians := make(map[string]float64, len(modes))
	means := make(map[string]float64, len(modes))
	for _, m := range modes {
		idx, err := cssi.Build(ds, cssi.Options{Seed: s.Seed, DeltaCompactThreshold: m.threshold})
		if err != nil {
			return nil, err
		}
		w := cssi.ShardedFrom(idx)
		durs, err := measureWriteLatency(w, overlayWriteOps(ds, nOps))
		if err != nil {
			return nil, fmt.Errorf("overlay: %s op stream: %w", m.name, err)
		}
		p50, p95, max, mean := latencyStats(durs)
		medians[m.name], means[m.name] = p50, mean
		wrappers[m.name] = w
		lat.Rows = append(lat.Rows, []string{
			m.name, itoa(nOps), f1(p50), f1(p95), f1(max), f1(mean),
		})
	}

	// In-run exactness oracle. The overlay wrapper still carries its
	// buffered delta here (nOps is below the default threshold), so the
	// first comparison genuinely exercises the base+delta search path.
	ov, eg := wrappers["delta overlay"], wrappers["eager COW"]
	if ov.ShardStats()[0].DeltaOps == 0 {
		return nil, fmt.Errorf("overlay: expected a buffered delta after %d ops, found none", nOps)
	}
	withDelta := collectExact(ov, queries, k, s.Lambda)
	vsEager := overlayResultsEqual(withDelta, collectExact(eg, queries, k, s.Lambda))
	if err := ov.Compact(); err != nil {
		return nil, fmt.Errorf("overlay: compact: %w", err)
	}
	if n := ov.ShardStats()[0].DeltaOps; n != 0 {
		return nil, fmt.Errorf("overlay: %d delta ops survived Compact", n)
	}
	vsCompacted := overlayResultsEqual(withDelta, collectExact(ov, queries, k, s.Lambda))
	if !vsCompacted || !vsEager {
		return nil, fmt.Errorf("overlay: base+delta search diverged (identical to compacted: %v, to eager: %v)",
			vsCompacted, vsEager)
	}

	speedup := func(stat map[string]float64) float64 {
		if stat["delta overlay"] <= 0 {
			return 0
		}
		return stat["eager COW"] / stat["delta overlay"]
	}
	summary := Table{
		ID:    "overlay",
		Title: "Overlay speedup and exactness check",
		Note: "speedups divide the eager wrapper's latency by the overlay wrapper's; the exactness rows compare " +
			"base+delta results bit-for-bit against the compacted rebuild and against the eager twin over " +
			fmt.Sprintf("%d queries at k=%d", len(queries), k),
		Header: []string{"metric", "value"},
		Rows: [][]string{
			{"p50 write speedup ×", f1(speedup(medians))},
			{"mean write speedup ×", f1(speedup(means))},
			{"base+delta == compacted", boolCell(vsCompacted)},
			{"base+delta == eager twin", boolCell(vsEager)},
		},
	}
	return []Table{lat, summary}, nil
}

// overlayWriteOps builds a deterministic net-zero-growth op stream of n
// single ops: each triple inserts a fresh object, updates a base
// object in place (moved coordinates), and deletes the object inserted
// one triple earlier — the steady-state churn shape of a serving shard.
func overlayWriteOps(ds *cssi.Dataset, n int) []cssi.Op {
	ops := make([]cssi.Op, 0, n)
	freshID := func(i int) uint32 { return uint32(1<<26 + i) }
	for i := 0; len(ops) < n; i++ {
		o := ds.Objects[(i*31+7)%ds.Len()]
		switch i % 3 {
		case 0:
			o.ID = freshID(i)
			ops = append(ops, cssi.Op{Kind: cssi.OpInsert, Object: o})
		case 1:
			o.X, o.Y = o.Y, o.X
			ops = append(ops, cssi.Op{Kind: cssi.OpUpdate, Object: o})
		default:
			if i < 5 { // nothing inserted a full triple ago yet
				o.ID = freshID(i)
				ops = append(ops, cssi.Op{Kind: cssi.OpInsert, Object: o})
				continue
			}
			// i≡2 (mod 3), so i-5 ≡ 0 (mod 3): the previous triple's insert.
			ops = append(ops, cssi.Op{Kind: cssi.OpDelete, ID: freshID(i - 5)})
		}
	}
	return ops[:n]
}

// measureWriteLatency applies each op as its own ApplyBatch call — the
// single-op write path the issue targets — and returns the per-op wall
// times.
func measureWriteLatency(w *cssi.ShardedIndex, ops []cssi.Op) ([]time.Duration, error) {
	durs := make([]time.Duration, len(ops))
	for i := range ops {
		t0 := time.Now()
		if err := w.ApplyBatch(ops[i : i+1]); err != nil {
			return nil, err
		}
		durs[i] = time.Since(t0)
	}
	return durs, nil
}

// latencyStats reduces per-op durations to µs percentiles and the mean.
func latencyStats(durs []time.Duration) (p50, p95, max, mean float64) {
	sorted := make([]time.Duration, len(durs))
	copy(sorted, durs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var sum time.Duration
	for _, d := range sorted {
		sum += d
	}
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	return us(sorted[len(sorted)/2]),
		us(sorted[(len(sorted)*95)/100]),
		us(sorted[len(sorted)-1]),
		us(sum) / float64(len(sorted))
}

// collectExact gathers exact k-NN results for every query at two λ
// settings, the fully spatial-weighted side included to sweep both
// pruning terms. The queries are corpus objects, so Do cannot reject
// them: an error is a bug and panics.
func collectExact(w *cssi.ShardedIndex, queries []cssi.Object, k int, lambda float64) [][]cssi.Result {
	out := make([][]cssi.Result, 0, 2*len(queries))
	for qi := range queries {
		for _, l := range []float64{lambda, 1} {
			res, err := w.Do(cssi.SearchRequest{Query: &queries[qi], K: k, Lambda: l})
			if err != nil {
				panic(err)
			}
			out = append(out, res)
		}
	}
	return out
}

func boolCell(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

// overlayResultsEqual compares two result sets bit-for-bit (IDs and
// distances): the overlay's exactness contract, not an approximation.
func overlayResultsEqual(a, b [][]cssi.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j].ID != b[i][j].ID || a[i][j].Dist != b[i][j].Dist {
				return false
			}
		}
	}
	return true
}
