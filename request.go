package cssi

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/core"
)

// SearchRequest describes one query against either index flavor —
// *Index or *ShardedIndex — through the single Do entry point. The zero
// value of every optional field means "off", so the minimal request is
// SearchRequest{Query: q, K: k, Lambda: λ}, the exact k-NN query.
// Radius and Window give the query another shape on the same exact
// read: a range query, and a k-NN query inside a map window. Keywords
// restrict that read to the objects holding every keyword.
//
// Each knob is one field, and the knobs compose — e.g. Approx+Dst+Stats
// is one request. The combinations with no sound implementation are
// rejected with ErrUnsupportedRequest: Keywords with Approx (a keyword
// request is exact by construction), Keywords with Explain/Trace (a
// selective keyword set is answered without reading a cluster), and
// Radius or Window with Approx or Keywords.
type SearchRequest struct {
	// Query is the query object; only X, Y and Vec are consulted. Must
	// be non-nil, finite, with a vector of the index's dimensionality
	// (ErrInvalidQuery otherwise).
	Query *Object
	// K is the number of neighbors (ErrInvalidK when < 1).
	K int
	// Lambda weighs the spatial vs semantic distance, in [0,1].
	Lambda float64
	// Approx selects the approximate CSSIA algorithm instead of exact
	// CSSI.
	Approx bool
	// Keywords, when non-empty, restricts results to objects whose text
	// contains every keyword (boolean AND, stop words ignored): the
	// keywords' candidates are gathered once over the pinned snapshots,
	// and at most 512 of them per snapshot are evaluated directly; more run the exact read with the candidates as
	// its row predicate. Either way the answer is the exact top-k of the
	// candidates; Stats stays unfilled. Requires EnableKeywordFilter
	// (ErrKeywordFilterDisabled otherwise); an unusable keyword list
	// (empty after normalization, or all stop words) fails with
	// ErrUnusableKeywords.
	Keywords []string
	// Radius, when non-nil, makes the request a range query: only objects
	// at distance d ≤ *Radius answer, at most K of them, nearest first —
	// the exact read with its k-NN bound starting at r instead of +Inf.
	// NaN or negative fails with ErrInvalidShape.
	Radius *float64
	// Window, when non-nil, restricts the answer to the objects located
	// inside it (a map viewport). Ranking still uses Lambda, so Lambda 0
	// ranks the objects in the window by meaning alone. A non-finite or
	// inverted window fails with ErrInvalidShape.
	Window *Window
	// Dst, when non-nil, receives the results appended (typically
	// dst[:0] of a buffer retained across queries — the zero-allocation
	// steady state).
	Dst []Result
	// Stats, when non-nil, accumulates the query's work counters.
	Stats *Stats
	// Explain, when non-nil, accumulates the per-query search-internals
	// trace (reuse across queries with ExplainStats.Reset). On a
	// ShardedIndex the cross-shard aggregate is merged in; pair with
	// Trace for the per-shard spans. Explain only observes: the request
	// executes exactly as it would without it, so Explain.Stats equals
	// the Stats of the same un-explained request.
	Explain *ExplainStats
	// Trace, when non-nil, is overwritten with the request's span tree:
	// one span per shard on a ShardedIndex, a single span on *Index.
	// Like Explain it only observes the execution.
	Trace *SearchTrace
	// RequestID stamps the Trace and the always-on tracer's recorded
	// trace (a fresh ID is generated when empty). The server passes its
	// X-Request-Id here, which is what makes /debug/traces lookups by
	// request ID work.
	RequestID string
	// TraceID stamps the recorded trace with the W3C trace-context
	// trace ID the request arrived with, joining distributed traces to
	// the in-process span tree. Ignored when no trace sink is
	// installed.
	TraceID string
	// Deadline, when > 0, is the query's time budget: past it the
	// search stops consuming clusters and returns the exact top-k of
	// the candidates examined so far — an admissible partial prefix,
	// flagged via Meta.Partial (see ResponseMeta.Partial for the
	// precise guarantee). 0 means no budget; negative fails with
	// ErrInvalidDeadline. Under DoContext the tighter of Deadline and
	// the context's deadline applies. Only a selective keyword request
	// (at most 512 candidates per snapshot, evaluated directly) runs to
	// completion whatever the budget.
	Deadline time.Duration
	// Cache selects the request's result-cache participation; the zero
	// value follows the index default (EnableResultCache). See
	// CacheMode.
	Cache CacheMode
	// Meta, when non-nil, receives the response metadata (partial,
	// cache hit, snapshot ID) for this request; see ResponseMeta.
	Meta *ResponseMeta
}

// BatchSearchRequest describes one batched k-NN workload for DoBatch:
// many queries sharing K/Lambda/Approx, answered across a bounded
// worker pool, each exactly as Do answers it.
type BatchSearchRequest struct {
	// Queries are the query objects (each needing X, Y, Vec).
	Queries []Object
	// K is the per-query neighbor count (DoBatch returns ErrInvalidK
	// when < 1).
	K int
	// Lambda weighs the spatial vs semantic distance, in [0,1].
	Lambda float64
	// Approx selects CSSIA instead of exact CSSI.
	Approx bool
	// Parallelism bounds the worker pool; <= 0 selects GOMAXPROCS and
	// larger values are clamped to GOMAXPROCS. A batch never runs on more
	// goroutines than this, exact or approximate, on a sharded index too.
	Parallelism int
	// Stats, when non-nil, accumulates the summed work counters of the
	// whole batch.
	Stats *Stats
	// RequestID and TraceID stamp the always-on tracer's recorded
	// trace, with the same contract as the SearchRequest fields of the
	// same names. Ignored when no trace sink is installed.
	RequestID string
	TraceID   string
	// Deadline is the whole batch's time budget — one absolute instant
	// shared by every query, not a per-query allowance — with the same
	// contract as SearchRequest.Deadline. Queries cut by the budget
	// return admissible partial prefixes; Meta.Partial reports whether
	// any query was cut.
	Deadline time.Duration
	// Cache selects the batch's result-cache participation (probed per
	// query); see CacheMode.
	Cache CacheMode
	// Meta, when non-nil, receives the response metadata for the whole
	// batch; see ResponseMeta.
	Meta *ResponseMeta
}

// Window is a closed spatial rectangle [LoX,HiX]×[LoY,HiY] in the
// objects' coordinates: SearchRequest.Window.
type Window = core.Window

// ErrUnusableKeywords is returned by Do when a keyword-constrained
// request's keyword list normalizes to nothing (empty, or all stop
// words).
var ErrUnusableKeywords = errors.New("cssi: keyword list unusable (empty or all stop words)")

// ErrKeywordFilterDisabled is returned by Do for a keyword-constrained
// request against an index (or any shard) whose keyword filter was never
// built: call EnableKeywordFilter first. Test with errors.Is.
var ErrKeywordFilterDisabled = errors.New("cssi: Keywords requires EnableKeywordFilter")

// ErrUnsupportedRequest is returned by Do for field combinations with
// no sound implementation (see SearchRequest). Test with errors.Is.
var ErrUnsupportedRequest = errors.New("cssi: unsupported search request")

// ErrInvalidK is returned by Do and DoBatch when the requested neighbor
// count is not positive. Test with errors.Is.
var ErrInvalidK = errors.New("cssi: k must be >= 1")

// ErrInvalidQuery is returned by Do and DoBatch for a query no distance
// is defined for: a nil query, a vector whose dimensionality is not the
// index's, or a non-finite (NaN or infinite) coordinate or vector
// component. Callers feeding user input should treat this as a bad
// request. Test with errors.Is.
var ErrInvalidQuery = errors.New("cssi: invalid query")

// ErrInvalidShape is returned by Do for a Radius that is NaN or
// negative, or a Window with a non-finite or inverted side. Test with
// errors.Is.
var ErrInvalidShape = errors.New("cssi: invalid radius or window")

// ErrInvalidLambda is returned by Do and DoBatch when Lambda is NaN or
// outside [0,1] — the λ-weighted distance is only defined on that
// interval. Test with errors.Is.
var ErrInvalidLambda = errors.New("cssi: lambda out of [0,1]")

// validateKnobs rejects the malformed shared knobs of a request, in the
// one fixed order every flavor's Do and DoBatch report them: K, then
// Lambda.
func validateKnobs(k int, lambda float64) error {
	if k < 1 {
		return fmt.Errorf("%w: got %d", ErrInvalidK, k)
	}
	if math.IsNaN(lambda) || lambda < 0 || lambda > 1 {
		return fmt.Errorf("%w: got %v", ErrInvalidLambda, lambda)
	}
	return nil
}

// validateQuery rejects a query the distance kernels cannot answer
// (they would otherwise panic deep inside the hot path, or return
// silent garbage for non-finite input).
func validateQuery(q *Object, dim int) error {
	if q == nil {
		return fmt.Errorf("%w: nil query", ErrInvalidQuery)
	}
	if len(q.Vec) != dim {
		return fmt.Errorf("%w: vector dim %d, index expects %d", ErrInvalidQuery, len(q.Vec), dim)
	}
	if !finite(q.X) || !finite(q.Y) {
		return fmt.Errorf("%w: location (%v, %v)", ErrInvalidQuery, q.X, q.Y)
	}
	for i, v := range q.Vec {
		if !finite(float64(v)) {
			return fmt.Errorf("%w: vector component %d is %v", ErrInvalidQuery, i, v)
		}
	}
	return nil
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// validate is the one validation of a single-query request against the
// snapshots it will run on: the shared knobs, the query, the shape and
// the combinations it excludes, then the keyword-incompatible
// combinations and the keyword filter's presence.
func (req *SearchRequest) validate(v *view) error {
	if err := validateKnobs(req.K, req.Lambda); err != nil {
		return err
	}
	if err := validateQuery(req.Query, v.at(0).Dim()); err != nil {
		return err
	}
	if r := req.Radius; r != nil && !(*r >= 0) {
		return fmt.Errorf("%w: radius %v", ErrInvalidShape, *r)
	}
	if w := req.Window; w != nil && !(finite(w.LoX) && finite(w.LoY) && finite(w.HiX) && finite(w.HiY) && w.LoX <= w.HiX && w.LoY <= w.HiY) {
		return fmt.Errorf("%w: window %+v", ErrInvalidShape, *w)
	}
	if (req.Radius != nil || req.Window != nil) && (req.Approx || len(req.Keywords) > 0) {
		return fmt.Errorf("%w: Radius and Window cannot combine with Approx or Keywords", ErrUnsupportedRequest)
	}
	if len(req.Keywords) > 0 {
		if req.Approx {
			return fmt.Errorf("%w: Keywords cannot combine with Approx (the keyword path is exact)", ErrUnsupportedRequest)
		}
		if req.Explain != nil || req.Trace != nil {
			return fmt.Errorf("%w: Keywords cannot combine with Explain or Trace", ErrUnsupportedRequest)
		}
		for i := 0; i < v.n(); i++ {
			if !v.at(i).KeywordFilterEnabled() {
				return ErrKeywordFilterDisabled
			}
		}
	}
	return nil
}

// validate is the one validation of a batch request: the shared knobs,
// then every query, identifying the offending one. All of it runs on
// the caller's goroutine, before any fan-out.
func (req *BatchSearchRequest) validate(dim int) error {
	if err := validateKnobs(req.K, req.Lambda); err != nil {
		return err
	}
	for i := range req.Queries {
		if err := validateQuery(&req.Queries[i], dim); err != nil {
			return fmt.Errorf("batch query %d: %w", i, err)
		}
	}
	return nil
}

// Do answers one query described by req. Conditions a correct caller
// can hit at runtime — often by passing through unvalidated user input —
// return a typed error, the same one in the same order on every index
// flavor: ErrInvalidK (K < 1), ErrInvalidLambda (Lambda NaN or outside
// [0,1]), ErrInvalidQuery (nil query, wrong vector dimensionality,
// non-finite coordinates or vector components), ErrInvalidShape,
// ErrUnsupportedRequest, ErrKeywordFilterDisabled, ErrInvalidDeadline,
// ErrUnusableKeywords. No request panics.
//
// With a trace sink installed (SetTraceSink) every executed Do records
// its span tree into the sink's tail sampler; without one the request
// pays no tracing cost at all.
//
// Do is exactly DoContext(context.Background(), req); use DoContext to
// compose the request with a context's deadline and cancellation (see
// serve for the contract).
func (x *Index) Do(req SearchRequest) ([]Result, error) {
	return serve(context.Background(), x.view(), &req)
}

// DoContext is Do under a context.
func (x *Index) DoContext(ctx context.Context, req SearchRequest) ([]Result, error) {
	return serve(ctx, x.view(), &req)
}

// DoBatch answers the batched workload described by req, with Do's
// validation contract (an invalid query is identified by its position)
// applied before any fan-out; an empty batch returns an empty result
// without spinning up workers.
//
// DoBatch is exactly DoBatchContext(context.Background(), req).
func (x *Index) DoBatch(req BatchSearchRequest) ([][]Result, error) {
	return serveBatch(context.Background(), x.view(), &req)
}

// DoBatchContext is DoBatch under a context (see serveBatch).
func (x *Index) DoBatchContext(ctx context.Context, req BatchSearchRequest) ([][]Result, error) {
	return serveBatch(ctx, x.view(), &req)
}

// Do answers one query across the shards — one read with one heap,
// striped onto the standing helper when a second processor is free (see
// execute), for every shape and under every keyword set. See
// Index.Do for the request contract; exact results are bit-identical to
// a flat index over the same objects. A trace sink installed on the
// index (SetTraceSink) records every executed Do regardless of which
// snapshots serve it. With a result cache enabled (EnableResultCache)
// repeated queries are served from it, bit-identical to an uncached
// search of the same snapshots: its snapshot identity is the interned
// vector of per-shard snapshots (see epochToken), so a hit proves no
// shard has republished since the entry was computed.
func (s *ShardedIndex) Do(req SearchRequest) ([]Result, error) {
	return serve(context.Background(), s.view(), &req)
}

// DoContext is Do under a context.
func (s *ShardedIndex) DoContext(ctx context.Context, req SearchRequest) ([]Result, error) {
	return serve(ctx, s.view(), &req)
}

// DoBatch answers a batched workload across the shards: the whole batch
// runs to completion against the snapshots it loaded, even while writers
// publish newer ones concurrently. See Index.DoBatch for the request
// contract.
func (s *ShardedIndex) DoBatch(req BatchSearchRequest) ([][]Result, error) {
	return serveBatch(context.Background(), s.view(), &req)
}

// DoBatchContext is DoBatch under a context.
func (s *ShardedIndex) DoBatchContext(ctx context.Context, req BatchSearchRequest) ([][]Result, error) {
	return serveBatch(ctx, s.view(), &req)
}
