package core

import (
	"math"
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
	// Approx selects CSSIA (Alg. 3) instead of exact CSSI: the same read
	// with its frontier over projected-space bounds and one approximate
	// stop (see walkFrontier). It ignores Seed, Striped and Bound.
	Approx bool
	// Quant is accepted and ignored: kept for bench/ until the
	// benchmark-only change drops the core.quantoff_p50_us and
	// core.sq8_search_speedup rows.
	Quant QuantMode
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
	// index. Exact path only: an Approx read ignores it.
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
	// Striped offers an exact read's frontier walk to an idle helper
	// goroutine as a second stripe (see stripe.go). The answer is the same
	// either way; the work counters are not — they depend on timing — so a
	// read that collects them (st or Explain) is never striped, and
	// neither is an Approx read. Only the facade's one-snapshot exact read
	// sets it.
	Striped bool
	// Bound, when non-nil, is a k-th distance bound the exact read shares
	// with the other reads of one query (see Bound): the read caps every
	// cut with it and lowers it to its own full heap's k-th distance after
	// every scanned cluster. It must start at the read's radius (+Inf for
	// none) and must be shared only by reads over disjoint rows of one
	// metric space, whose heaps then hold real candidates of one query.
	// The answer of the reads together is the same either way; their work
	// counters are not, so a read that collects them (st or Explain)
	// ignores it, as does an Approx read, and a striped read cuts at its
	// stripes' one heap instead. The facade's seeded chains of a sharded
	// read set it.
	Bound *Bound
	// Anchors, when non-nil, is the query's distances to one anchor set,
	// filled once for a read that spans several snapshots
	// (FillAnchorDists); the exact read uses them when its snapshot has
	// that set and normalizer, and computes its own otherwise. It changes
	// no answer and no counter.
	Anchors *AnchorDists
	// Allow, Radius and Window restrict the read to the rows that pass
	// all three. Every bound of the exact read holds for any subset of the
	// rows, so its answer is the exact top-k of that subset, and a
	// restricted-out row never reaches a kernel. An Approx read runs the
	// same row loop and so applies them too, though the facade refuses
	// that combination.
	//
	// Allow, when non-nil, admits a row by its ID (the keyword filter's
	// predicate).
	Allow func(id uint32) bool
	// Radius, when non-nil, admits only rows at distance d ≤ *Radius: the
	// range query in SEAL's threshold formulation, a k-NN read whose bound
	// starts at r rather than +Inf.
	Radius *float64
	// Window, when non-nil, admits only rows located inside it. A spatial
	// side whose ball misses the window contributes no cluster at all.
	Window *Window
}

// Window is the closed spatial rectangle [LoX,HiX]×[LoY,HiY], in the
// objects' coordinates.
type Window struct{ LoX, LoY, HiX, HiY float64 }

func (w *Window) contains(x, y float64) bool {
	return x >= w.LoX && x <= w.HiX && y >= w.LoY && y <= w.HiY
}

// minDist returns the Euclidean distance from (px,py) to the window
// (zero inside), by the formula of geo.Rect.MinDist.
func (w *Window) minDist(px, py float64) float64 {
	var dx, dy float64
	if px < w.LoX {
		dx = w.LoX - px
	} else if px > w.HiX {
		dx = px - w.HiX
	}
	if py < w.LoY {
		dy = w.LoY - py
	} else if py > w.HiY {
		dy = py - w.HiY
	}
	return math.Sqrt(dx*dx + dy*dy)
}

// restriction is SearchOptions' row restriction as the scan loops read
// it: radius is +Inf when unset, and rows says whether a row must pass
// admits at all.
type restriction struct {
	allow  func(id uint32) bool
	window *Window
	radius float64
	rows   bool
}

func (r *restriction) admits(id uint32, x, y float64) bool {
	return (r.window == nil || r.window.contains(x, y)) && (r.allow == nil || r.allow(id))
}

// SearchOptionsInto is the one k-NN entry point: it answers q with the
// algorithm opts selects, appending the results to dst (usually dst[:0]
// of a retained buffer) and accumulating work counters into st when
// non-nil. With a dst of sufficient capacity a steady-state call
// performs zero heap allocations: all per-query state comes from the
// index's scratch pool. It panics if k < 1, in either mode; the facade
// rejects such a k first.
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
	sc.rs.allow, sc.rs.window = opts.Allow, opts.Window
	sc.rs.rows = opts.Allow != nil || opts.Window != nil
	if opts.Radius != nil {
		sc.rs.radius = *opts.Radius
	}
	sc.anchorShared = opts.Anchors
	sc.approx = opts.Approx
	seed, b, striped := opts.Seed, opts.Bound, opts.Striped && st == nil
	if st != nil {
		b = nil
	}
	if opts.Approx {
		seed, b, striped = nil, nil, false
	}
	n := len(dst)
	dst = x.searchWithSeed(sc, dst, seed, q, k, lambda, striped, b, st)
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
