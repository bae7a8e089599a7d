package experiments

import (
	cssi "repro"
	"repro/internal/obs"
)

func init() {
	register("lazyorder", LazyOrder)
}

// LazyOrder measures the lazy best-first cluster ordering this PR
// lands: instead of eagerly sorting all Ks×Kt clusters per query, the
// search heapifies weak lower bounds in O(K) and pops clusters on
// demand, refining bounds only for clusters the scan actually reaches.
// One table, measured with SearchRequest.Explain at P ∈ {1, 4, 8}:
//
//   - clusters/shard   — the Ks×Kt frontier size a query starts with
//   - ordered/query    — frontier pops per query (ClustersOrdered; a
//     weak entry re-pushed after refinement pops twice). On a pruned
//     query this stays far below clusters/shard: clusters cut off by
//     the k-NN bound are never ordered at all, which is the win over
//     the eager O(K log K) sort.
//   - ordered ratio    — ordered / (examined + pruned) clusters
//   - order µs/query   — wall time of the up-front ordering phase
//     (bound fill + heapify; pops accrue to the scan phase)
//   - read efficiency  — fraction of accounted objects pruned, to pin
//     that laziness costs no pruning power as P grows
func LazyOrder(s Setup) ([]Table, error) {
	s.applyDefaults()
	size := s.size(20000)
	ds, err := cssi.GenerateDataset(cssi.DatasetConfig{
		Kind: cssi.TwitterLike, Size: size, Dim: s.Dim, Seed: s.Seed,
	})
	if err != nil {
		return nil, err
	}
	queries := ds.SampleQueries(s.Queries, s.Seed+11)
	k, lambda := s.K, s.Lambda

	t := Table{
		ID:    "lazyorder",
		Title: "Lazy best-first cluster ordering (exact CSSI, SearchRequest.Explain)",
		Note: "ordered/query counts frontier pops (re-pushed clusters pop twice); the eager sort this " +
			"replaced ordered every cluster of every shard on every query, so ordered/query well below " +
			"clusters/shard is ordering work the lazy frontier never did. Read efficiency is the fraction " +
			"of accounted objects pruned (§6) and must not degrade vs the flat index.",
		Header: []string{"P", "clusters/shard", "ordered/query", "ordered ratio", "order µs/query", "read efficiency"},
	}
	for _, p := range []int{1, 4, 8} {
		idx, err := cssi.BuildSharded(ds, p, cssi.Options{Seed: s.Seed})
		if err != nil {
			return nil, err
		}
		var agg obs.SearchStats
		for qi := range queries {
			if _, err := idx.Do(cssi.SearchRequest{Query: &queries[qi], K: k, Lambda: lambda, Explain: &agg}); err != nil {
				return nil, err
			}
		}
		nq := float64(len(queries))
		// ClustersTotal sums every shard's frontier size per query;
		// divide by P for the per-shard frontier a single search faces.
		perShard := float64(agg.ClustersTotal) / nq / float64(p)
		ordered := float64(agg.ClustersOrdered) / nq
		ratio := 0.0
		if ct := agg.ClustersExamined + agg.ClustersPruned; ct > 0 {
			ratio = float64(agg.ClustersOrdered) / float64(ct)
		}
		t.Rows = append(t.Rows, []string{
			itoa(p),
			f1(perShard),
			f1(ordered),
			f2(ratio),
			f1(float64(agg.OrderNanos) / nq / 1e3),
			pct(agg.ReadEfficiency()),
		})
	}
	return []Table{t}, nil
}
