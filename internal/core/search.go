package core

import (
	"time"

	"repro/internal/dataset"
	"repro/internal/knn"
	"repro/internal/metric"
	"repro/internal/obs"
)

// QuantMode is the type of SearchOptions.Quant, kept for bench/ like the
// field.
type QuantMode int

// QuantOff is QuantMode's one value, kept for bench/ like the type.
const QuantOff QuantMode = 1

// SearchOptions is the per-call value of the k-NN entry point: the
// algorithm switches plus everything else one query may carry — a time
// budget, a bound-carrying seed, and the sinks it reports into. The
// zero value is the paper's exact CSSI search (Alg. 2).
type SearchOptions struct {
	// Approx selects CSSIA instead of exact CSSI.
	Approx bool
	// Quant is accepted and ignored: kept for bench/ until the
	// benchmark-only change drops the core.quantoff_p50_us and
	// core.sq8_search_speedup rows.
	Quant QuantMode
	// Route engages the learned cluster router (see route.go): with
	// Approx it selects the routed approximate mode whose cluster
	// coverage is tuned by RouteTarget. It has no effect on exact
	// queries, and is silently ignored when the index has no trained
	// router.
	Route bool
	// RouteTarget is the routed approximate mode's probability-mass
	// coverage in (0,1]; <= 0 selects DefaultRouteTarget. Ignored
	// outside Route+Approx.
	RouteTarget float64
	// Deadline, when non-zero, is the absolute instant past which the
	// query stops consuming clusters and returns the admissible prefix
	// accumulated so far (see deadline.go), reporting the truncation
	// through Partial. The zero value means no budget.
	Deadline time.Time
	// Cancel, when non-nil, stops the query at the next budget check
	// once the channel is closed, with the same partial-prefix
	// semantics as Deadline (the facade threads ctx.Done() here).
	Cancel <-chan struct{}
	// Seed pre-loads the k-NN heap before any cluster is examined. The
	// entries must be real candidates whose distances are comparable to
	// this index's (same metric space normalizers) and must not
	// duplicate any object stored here or share storage with dst. The
	// answer is then the exact top-k of Seed ∪ this index's objects —
	// which is what lets a sequential scan over disjoint partitions
	// chain the call shard to shard, carrying the pruning bound forward:
	// each shard starts with the tightest bound discovered so far, so
	// the partitioned scan does the same total pruning work as one flat
	// index. Applies to the exact path only (the approximate algorithms
	// keep their own candidate pools).
	Seed []knn.Result
	// Explain, when non-nil, accumulates the query's search-internals
	// trace: clusters ordered/examined/pruned, objects visited vs
	// pruned, early-abandon kernel exits, per-phase wall time, and the
	// final k-NN bound. Results are bit-identical either way —
	// collection only reads what the algorithms already compute. The
	// work counters then accumulate into Explain.Stats and the st
	// argument is ignored. Callers that retain one across queries
	// should Reset it first.
	Explain *obs.SearchStats
	// Partial, when non-nil, is set to whether the query stopped at its
	// budget before proving completeness: the results are then the exact
	// top-k of the candidates examined so far — an admissible prefix —
	// but closer objects may remain unvisited.
	Partial *bool
}

// SearchOptionsInto is the one k-NN entry point: it answers q with the
// algorithm opts selects, appending the results to dst (usually dst[:0]
// of a retained buffer) and accumulating work counters into st when
// non-nil. With a dst of sufficient capacity a steady-state call
// performs zero heap allocations: all per-query state comes from the
// index's scratch pool.
//
// Centroid-level distance computations are not charged to st — the
// evaluation counts object-level work (visited objects, and §7.7 counts
// CSSI distance calculations as visited×2), and the centroid distances
// per query are part of the index overhead reflected in wall time
// instead.
func (x *Index) SearchOptionsInto(dst []knn.Result, q *dataset.Object, k int, lambda float64, opts SearchOptions, st *metric.Stats) []knn.Result {
	sc := x.getScratch()
	if opts.Explain != nil {
		sc.obs = opts.Explain
		st = &opts.Explain.Stats
	}
	sc.deadline = opts.Deadline
	sc.cancel = opts.Cancel
	sc.budgeted = !opts.Deadline.IsZero() || opts.Cancel != nil
	n := len(dst)
	switch {
	case !opts.Approx:
		dst = x.searchWithSeed(sc, dst, opts.Seed, q, k, lambda, st)
	case opts.Route && x.router != nil:
		dst = x.searchRoutedWith(sc, dst, q, k, lambda, routeTargetOrDefault(opts.RouteTarget), st)
	default:
		dst = x.searchApproxWith(sc, dst, q, k, lambda, st)
	}
	if opts.Partial != nil {
		*opts.Partial = sc.partial
	}
	if opts.Explain != nil && len(dst) > n {
		opts.Explain.KthDistance = dst[len(dst)-1].Dist
	}
	x.putScratch(sc)
	return dst
}

// SearchExplainOptionsInto is SearchOptionsInto with es as the explain
// sink (see SearchOptions.Explain); es must be non-nil.
func (x *Index) SearchExplainOptionsInto(dst []knn.Result, q *dataset.Object, k int, lambda float64, opts SearchOptions, es *obs.SearchStats) []knn.Result {
	opts.Explain = es
	return x.SearchOptionsInto(dst, q, k, lambda, opts, nil)
}
