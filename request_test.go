package cssi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"math"
	"math/rand/v2"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metric"
	"repro/internal/obs"
	"repro/internal/scan"
)

// searchAPI adapts the index flavors to one shape so the cross-flavor
// tests run identically against each.
type searchAPI struct {
	name    string
	do      func(SearchRequest) ([]Result, error)
	doBatch func(BatchSearchRequest) ([][]Result, error)
	doCtx   func(context.Context, SearchRequest) ([]Result, error)
	setSink func(sink *obs.Sink)
	del     func(id uint32) error
	// enableCache installs a result cache; nil on the bare *Index, which
	// never caches.
	enableCache func(capacity int)
	// snaps is the number of snapshots a request spans (its trace's
	// span count).
	snaps int
	// doChained is do with the read held to one stripe, whatever the
	// host's: the way a batch answers each of its queries.
	doChained func(SearchRequest) ([]Result, error)
}

// requestFixtures builds Index, ShardedFrom(idx) (as BuildSharded P=1)
// and BuildSharded(P=4) over the same dataset, with the keyword filter
// enabled or left out.
func requestFixtures(t *testing.T, ds *Dataset, keywordFilter bool) []searchAPI {
	t.Helper()
	return requestFixturesWith(t, ds, Options{Seed: 5}, keywordFilter)
}

func requestFixturesWith(t *testing.T, ds *Dataset, opts Options, keywordFilter bool) []searchAPI {
	t.Helper()
	flat := mustBuild(t, ds, opts)
	if keywordFilter {
		flat.EnableKeywordFilter()
	}
	apis := []searchAPI{
		{name: "flat", do: flat.Do, doBatch: flat.DoBatch, doCtx: flat.DoContext, setSink: flat.SetTraceSink, del: flat.Delete, snaps: 1,
			doChained: flat.Do},
	}
	for _, p := range []int{1, 4} {
		apis = append(apis, shardedFixture(t, ds, p, opts, keywordFilter))
	}
	return apis
}

// shardedFixture is BuildSharded with p shards as a searchAPI.
func shardedFixture(t *testing.T, ds *Dataset, p int, opts Options, keywordFilter bool) searchAPI {
	t.Helper()
	s := mustBuildSharded(t, ds, p, opts)
	if keywordFilter {
		s.EnableKeywordFilter()
	}
	return searchAPI{
		name: fmt.Sprintf("sharded-P%d", p), do: s.Do, doBatch: s.DoBatch, doCtx: s.DoContext, setSink: s.SetTraceSink, del: s.Delete,
		enableCache: s.EnableResultCache, snaps: p,
		doChained: func(req SearchRequest) ([]Result, error) { return doStriped(s, 1, context.Background(), req) },
	}
}

// TestRequestConformance is the one cross-flavor table: every request
// shape runs against every flavor, and must (a) answer exact requests
// bit-identically to the linear scan, (b) agree with the flat index on
// the full answer — IDs, tie order — wherever the answer is defined by
// the data alone, (c) report the same error class and Meta flags on
// every flavor, and (d) leave observers (Explain, Trace) with exactly
// the Stats of the same un-observed request.
func TestRequestConformance(t *testing.T) {
	ds := testDataset(t, 2500)
	space, err := metric.NewSpace(ds)
	if err != nil {
		t.Fatal(err)
	}
	oracle := scan.New(ds, space)
	// The gate-off reference: SearchAblated keeps the paper's original
	// Lemma 4.5 and no per-row check (see core's rowGate).
	gateOff := mustBuild(t, ds, Options{Seed: 5}).core
	kw := firstKeyword(t, ds)
	apis := requestFixtures(t, ds, true)

	type outcome struct {
		res  []Result
		err  error
		meta ResponseMeta
	}
	type shape struct {
		name string
		// mod turns the plain exact request into the shape's.
		mod func(req *SearchRequest)
		ctx func() context.Context
		// exact: the answer must equal the linear scan's. perFlavor: the
		// answer legitimately depends on the flavor's clustering
		// (approximate modes, budget cuts), so it is not compared across
		// flavors.
		exact, perFlavor bool
		wantErr          error
		wantPartial      bool
		// check inspects the shape's observers after a successful call;
		// plain holds the Stats of the same request without them.
		check func(t *testing.T, api searchAPI, req *SearchRequest, got []Result, plain Stats)
	}
	canceled := func() context.Context {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		return ctx
	}
	// The range and window shapes are held to restricted: the prefix of
	// the scan's full ranking that passes the radius and the window, cut
	// at K. at is the scan's i-th distance (1-based, clamped).
	objs := make(map[uint32]Object, ds.Len())
	for _, o := range ds.Objects {
		objs[o.ID] = o
	}
	restricted := func(r *SearchRequest) []Result {
		var out []Result
		for _, res := range oracle.Search(r.Query, ds.Len(), r.Lambda, nil) {
			o, w := objs[res.ID], r.Window
			if len(out) < r.K && (r.Radius == nil || res.Dist <= *r.Radius) &&
				(w == nil || o.X >= w.LoX && o.X <= w.HiX && o.Y >= w.LoY && o.Y <= w.HiY) {
				out = append(out, res)
			}
		}
		return out
	}
	at := func(r *SearchRequest, i int) *float64 {
		all := oracle.Search(r.Query, ds.Len(), r.Lambda, nil)
		d := all[min(max(i, 1), len(all))-1].Dist
		return &d
	}
	window := func(r *SearchRequest) *Window {
		return &Window{LoX: r.Query.X - 0.2, LoY: r.Query.Y - 0.15, HiX: r.Query.X + 0.25, HiY: r.Query.Y + 0.3}
	}
	vsRestricted := func(t *testing.T, api searchAPI, r *SearchRequest, got []Result, plain Stats) {
		equalResults(t, api.name+" vs restricted scan", restricted(r), got)
	}
	shapes := []shape{
		{name: "exact", exact: true},
		{name: "approx", mod: func(r *SearchRequest) { r.Approx = true }, perFlavor: true},
		{name: "keywords", mod: func(r *SearchRequest) { r.Keywords = []string{kw} }},
		{name: "explain", mod: func(r *SearchRequest) { r.Explain = new(ExplainStats) }, exact: true,
			check: func(t *testing.T, api searchAPI, r *SearchRequest, got []Result, plain Stats) {
				if r.Explain.Stats != plain {
					t.Fatalf("Explain.Stats %+v, un-explained Stats %+v", r.Explain.Stats, plain)
				}
				if len(got) > 0 && r.Explain.KthDistance != got[len(got)-1].Dist {
					t.Fatalf("Explain.KthDistance %v, kth result %v", r.Explain.KthDistance, got[len(got)-1].Dist)
				}
				// bench/ and /v1 clients still read the quant keys of an
				// explain response: present, and zero.
				js, err := json.Marshal(r.Explain)
				if err != nil {
					t.Fatal(err)
				}
				var keys map[string]any
				if err := json.Unmarshal(js, &keys); err != nil {
					t.Fatal(err)
				}
				for _, key := range []string{"quantNanos", "quantPruned", "quantReranked"} {
					if v, ok := keys[key]; !ok || v != float64(0) {
						t.Fatalf("explain JSON %q = %v (present %v), want 0", key, v, ok)
					}
				}
			}},
		{name: "trace", mod: func(r *SearchRequest) { r.Trace, r.RequestID = new(SearchTrace), "req-conformance" }, exact: true,
			check: func(t *testing.T, api searchAPI, r *SearchRequest, got []Result, plain Stats) {
				tr := r.Trace
				if tr.RequestID != "req-conformance" || tr.Algo != "cssi" || tr.K != r.K || tr.Lambda != r.Lambda {
					t.Fatalf("trace envelope %+v", tr)
				}
				if len(tr.Shards) != api.snaps {
					t.Fatalf("%d spans, want %d", len(tr.Shards), api.snaps)
				}
				// A read the helper shared (Parallel) counts what its two
				// stripes did, which depends on timing; on one stripe it
				// counts what the counted read does.
				if !tr.Parallel && tr.Total.Stats != plain {
					t.Fatalf("trace total %+v, un-traced Stats %+v", tr.Total.Stats, plain)
				}
				if err := tr.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
			}},
		{name: "dst-reuse", mod: func(r *SearchRequest) { r.Dst = append(make([]Result, 0, 64), Result{ID: 424242, Dist: -1}) }, exact: true},
		{name: "expired-deadline", mod: func(r *SearchRequest) { r.Deadline = time.Nanosecond }, perFlavor: true, wantPartial: true},
		{name: "cancelled-ctx", ctx: canceled, wantErr: context.Canceled},
		{name: "cache-off", mod: func(r *SearchRequest) { r.Cache = CacheOff }, exact: true},
		{name: "cache-on", mod: func(r *SearchRequest) { r.Cache = CacheOn }, exact: true},
		// A radius equal to the K-th distance answers the K nearest, ties
		// at d == r included; one at the 2K-th keeps K below the matches.
		{name: "range/tie-at-r", mod: func(r *SearchRequest) { r.Radius = at(r, r.K) }, exact: true, check: vsRestricted},
		{name: "range/k-below-matches", mod: func(r *SearchRequest) { r.Radius = at(r, 2*r.K) }, exact: true, check: vsRestricted},
		{name: "range/all-matches", mod: func(r *SearchRequest) { r.Radius = at(r, r.K/2) }, check: vsRestricted},
		{name: "range/zero", mod: func(r *SearchRequest) { r.Radius = new(float64) }, check: vsRestricted},
		{name: "range/expired-deadline", mod: func(r *SearchRequest) { r.Radius, r.Deadline = at(r, r.K), time.Nanosecond },
			perFlavor: true, wantPartial: true},
		{name: "window", mod: func(r *SearchRequest) { r.Window = window(r) }, check: vsRestricted},
		{name: "window/lambda=0", mod: func(r *SearchRequest) { r.Window, r.Lambda = window(r), 0 }, check: vsRestricted},
		{name: "window/degenerate", mod: func(r *SearchRequest) {
			r.Window = &Window{LoX: r.Query.X, LoY: r.Query.Y, HiX: r.Query.X, HiY: r.Query.Y}
		}, check: vsRestricted},
		{name: "window/expired-deadline", mod: func(r *SearchRequest) { r.Window, r.Deadline = window(r), time.Nanosecond },
			perFlavor: true, wantPartial: true},

		{name: "invalid/k=0", mod: func(r *SearchRequest) { r.K = 0 }, wantErr: ErrInvalidK},
		{name: "invalid/k=0-before-lambda", mod: func(r *SearchRequest) { r.K, r.Lambda = -3, 7 }, wantErr: ErrInvalidK},
		{name: "invalid/lambda-nan", mod: func(r *SearchRequest) { r.Lambda = math.NaN() }, wantErr: ErrInvalidLambda},
		{name: "invalid/lambda-high", mod: func(r *SearchRequest) { r.Lambda = 1.5 }, wantErr: ErrInvalidLambda},
		{name: "invalid/lambda-before-query", mod: func(r *SearchRequest) { r.Lambda, r.Query = -0.1, nil }, wantErr: ErrInvalidLambda},
		{name: "invalid/nil-query", mod: func(r *SearchRequest) { r.Query = nil }, wantErr: ErrInvalidQuery},
		{name: "invalid/nil-vec", mod: func(r *SearchRequest) { q := *r.Query; q.Vec = nil; r.Query = &q }, wantErr: ErrInvalidQuery},
		{name: "invalid/wrong-dim", mod: func(r *SearchRequest) { q := *r.Query; q.Vec = q.Vec[:len(q.Vec)-1]; r.Query = &q }, wantErr: ErrInvalidQuery},
		{name: "invalid/nan-location", mod: func(r *SearchRequest) { q := *r.Query; q.X = math.NaN(); r.Query = &q }, wantErr: ErrInvalidQuery},
		{name: "invalid/inf-component", mod: func(r *SearchRequest) {
			q := *r.Query
			q.Vec = append([]float32(nil), q.Vec...)
			q.Vec[3] = float32(math.Inf(1))
			r.Query = &q
		}, wantErr: ErrInvalidQuery},
		{name: "invalid/keywords+approx", mod: func(r *SearchRequest) { r.Keywords, r.Approx = []string{kw}, true }, wantErr: ErrUnsupportedRequest},
		{name: "invalid/keywords+explain", mod: func(r *SearchRequest) { r.Keywords, r.Explain = []string{kw}, new(ExplainStats) }, wantErr: ErrUnsupportedRequest},
		{name: "invalid/keywords+trace", mod: func(r *SearchRequest) { r.Keywords, r.Trace = []string{kw}, new(SearchTrace) }, wantErr: ErrUnsupportedRequest},
		{name: "invalid/stop-word-keywords", mod: func(r *SearchRequest) { r.Keywords = []string{"of"} }, wantErr: ErrUnusableKeywords},
		{name: "invalid/negative-deadline", mod: func(r *SearchRequest) { r.Deadline = -time.Second }, wantErr: ErrInvalidDeadline},
		{name: "invalid/cache-mode", mod: func(r *SearchRequest) { r.Cache = CacheMode(99) }, wantErr: ErrUnsupportedRequest},
		{name: "invalid/radius-nan", mod: func(r *SearchRequest) { d := math.NaN(); r.Radius = &d }, wantErr: ErrInvalidShape},
		{name: "invalid/radius-negative", mod: func(r *SearchRequest) { d := -0.1; r.Radius = &d }, wantErr: ErrInvalidShape},
		{name: "invalid/window-inf", mod: func(r *SearchRequest) { r.Window = &Window{HiX: math.Inf(1), HiY: 1} }, wantErr: ErrInvalidShape},
		{name: "invalid/window-nan", mod: func(r *SearchRequest) { r.Window = &Window{LoX: math.NaN(), HiX: 1, HiY: 1} }, wantErr: ErrInvalidShape},
		{name: "invalid/window-inverted", mod: func(r *SearchRequest) { r.Window = &Window{LoX: 0.8, HiX: 0.2, HiY: 1} }, wantErr: ErrInvalidShape},
		{name: "invalid/k=0-before-radius", mod: func(r *SearchRequest) { d := -1.0; r.K, r.Radius = 0, &d }, wantErr: ErrInvalidK},
		{name: "invalid/radius+approx", mod: func(r *SearchRequest) { r.Radius, r.Approx = at(r, 3), true }, wantErr: ErrUnsupportedRequest},
		{name: "invalid/window+approx", mod: func(r *SearchRequest) { r.Window, r.Approx = window(r), true }, wantErr: ErrUnsupportedRequest},
		{name: "invalid/radius+keywords", mod: func(r *SearchRequest) { r.Radius, r.Keywords = at(r, 3), []string{kw} }, wantErr: ErrUnsupportedRequest},
		{name: "invalid/window+keywords", mod: func(r *SearchRequest) { r.Window, r.Keywords = window(r), []string{kw} }, wantErr: ErrUnsupportedRequest},
	}

	rng := rand.New(rand.NewPCG(42, 1))
	type trial struct {
		q      Object
		k      int
		lambda float64
	}
	trials := []trial{{ds.Objects[3], 10, 0.5}, {ds.Objects[11], 5, 0}, {ds.Objects[17], 7, 1},
		{ds.Objects[23], 10, 0.1}, {ds.Objects[29], 10, 0.9}, {ds.Objects[31], ds.Len() + 3, 0.5}}
	for len(trials) < 10 {
		trials = append(trials, trial{ds.Objects[rng.IntN(ds.Len())], 1 + rng.IntN(20), rng.Float64()})
	}

	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			for ti, tc := range trials {
				want := oracle.Search(&tc.q, tc.k, tc.lambda, nil)
				ablated := gateOff.SearchAblated(&tc.q, tc.k, tc.lambda, core.AblationOptions{}, nil)
				var first outcome
				for ai, api := range apis {
					ctxOf := context.Background
					if sh.ctx != nil {
						ctxOf = sh.ctx
					}
					// The same request without observers, for its Stats.
					var plain Stats
					if sh.check != nil {
						if _, err := api.do(SearchRequest{Query: &tc.q, K: tc.k, Lambda: tc.lambda, Stats: &plain}); err != nil {
							t.Fatal(err)
						}
					}
					var got outcome
					req := SearchRequest{Query: &tc.q, K: tc.k, Lambda: tc.lambda, Meta: &got.meta}
					if sh.mod != nil {
						sh.mod(&req)
					}
					prefix := len(req.Dst)
					got.res, got.err = api.doCtx(ctxOf(), req)
					ctx := fmt.Sprintf("%s trial %d", api.name, ti)

					if !errors.Is(got.err, sh.wantErr) || (sh.wantErr == nil && got.err != nil) {
						t.Fatalf("%s: err = %v, want %v", ctx, got.err, sh.wantErr)
					}
					if got.meta.Partial != sh.wantPartial || got.meta.CacheHit {
						t.Fatalf("%s: meta %+v, want partial=%v, no cache hit", ctx, got.meta, sh.wantPartial)
					}
					if got.err != nil {
						if got.res != nil {
							t.Fatalf("%s: results alongside error %v", ctx, got.err)
						}
						continue
					}
					if prefix > 0 {
						if len(got.res) < prefix || got.res[0] != req.Dst[0] {
							t.Fatalf("%s: Dst prefix clobbered", ctx)
						}
						got.res = got.res[prefix:]
					}
					if sh.exact {
						compare(t, ctx+" vs scan", tc.lambda, tc.k, want, got.res)
						equalResults(t, ctx+" vs gate-off", ablated, got.res)
					}
					if len(got.res) > tc.k || !sort.SliceIsSorted(got.res, func(i, j int) bool { return lessResult(got.res[i], got.res[j]) }) {
						t.Fatalf("%s: malformed answer %v", ctx, got.res)
					}
					if sh.check != nil {
						sh.check(t, api, &req, got.res, plain)
					}
					if ai == 0 {
						first = got
					} else if !sh.perFlavor {
						equalResults(t, ctx+" vs "+apis[0].name, first.res, got.res)
					}
				}
			}
		})
	}

	// Exact requests stay exact at the corners of the ordering: λ = 1
	// (every semantic share of the bound is 0, so whole rows of clusters
	// tie), λ = 0, k ≥ n, an index of one hybrid cluster, and an index
	// whose every object is deleted.
	t.Run("exact-edges", func(t *testing.T) {
		small := testDataset(t, 150)
		smallSpace, err := metric.NewSpace(small)
		if err != nil {
			t.Fatal(err)
		}
		smallOracle := scan.New(small, smallSpace)
		for _, fx := range []struct {
			name string
			opts Options
			wipe bool
		}{
			{"default", Options{Seed: 5}, false},
			{"one-cluster", Options{Seed: 5, Ks: 1, Kt: 1}, false},
			{"all-deleted", Options{Seed: 5}, true},
		} {
			for _, api := range requestFixturesWith(t, small, fx.opts, false) {
				if fx.wipe {
					for i := range small.Objects {
						if err := api.del(small.Objects[i].ID); err != nil {
							t.Fatal(err)
						}
					}
				}
				for _, lambda := range []float64{0, 0.1, 0.5, 0.9, 1} {
					for _, k := range []int{1, 10, small.Len() + 3} {
						q := small.Objects[(7*k+3)%small.Len()]
						var want []Result
						if !fx.wipe {
							want = smallOracle.Search(&q, k, lambda, nil)
						}
						got, err := api.do(SearchRequest{Query: &q, K: k, Lambda: lambda})
						if err != nil {
							t.Fatalf("%s %s: %v", fx.name, api.name, err)
						}
						compare(t, fx.name+" "+api.name+" vs scan", lambda, k, want, got)
					}
				}
			}
		}
	})

	// Keywords against flavors that never built the keyword filter: the
	// one set-up mistake a request can reach is an error like the rest,
	// reported after the malformed-request classes.
	t.Run("invalid/keywords-without-filter", func(t *testing.T) {
		small := testDataset(t, 300)
		for _, api := range requestFixtures(t, small, false) {
			req := SearchRequest{Query: &small.Objects[3], K: 5, Lambda: 0.5, Keywords: []string{kw}}
			if res, err := api.do(req); !errors.Is(err, ErrKeywordFilterDisabled) || res != nil {
				t.Fatalf("%s: res %v, err %v, want ErrKeywordFilterDisabled", api.name, res, err)
			}
			req.K = 0
			if _, err := api.do(req); !errors.Is(err, ErrInvalidK) {
				t.Fatalf("%s: err %v, want ErrInvalidK before the filter check", api.name, err)
			}
			req.K, req.Approx = 5, true
			if _, err := api.do(req); !errors.Is(err, ErrUnsupportedRequest) {
				t.Fatalf("%s: err %v, want ErrUnsupportedRequest before the filter check", api.name, err)
			}
		}
	})

	// Batches obey the same validation and answer exactly what the
	// single-query path answers, Stats included — those of the one-stripe
	// read, which is how a batch answers each query whatever the host's
	// stripe count: an exact one walks all the snapshots into one heap,
	// an approximate one merges their answers. Every worker count of the
	// pool gives the same answers and counters, GOMAXPROCS (0) and a
	// count the clamp may cut (3) included.
	t.Run("batch", func(t *testing.T) {
		queries := ds.SampleQueries(12, 9)
		bad := append([]Object(nil), queries...)
		bad[7].Vec = bad[7].Vec[:5]
		batchAPIs := append(apis[:len(apis):len(apis)], shardedFixture(t, ds, 2, Options{Seed: 5}, false))
		for _, api := range batchAPIs {
			for _, approx := range []bool{false, true} {
				for _, k := range []int{1, 7, 50} {
					for _, lambda := range []float64{0, 0.4, 1} {
						ctx := fmt.Sprintf("%s approx=%v k=%d λ=%v", api.name, approx, k, lambda)
						var stSingle Stats
						want := make([][]Result, len(queries))
						for i := range queries {
							var err error
							want[i], err = api.doChained(SearchRequest{Query: &queries[i], K: k, Lambda: lambda, Approx: approx, Stats: &stSingle})
							if err != nil {
								t.Fatal(err)
							}
						}
						for _, par := range []int{1, 2, 3, 0} {
							var stBatch Stats
							got, err := api.doBatch(BatchSearchRequest{Queries: queries, K: k, Lambda: lambda, Approx: approx,
								Parallelism: par, Stats: &stBatch})
							if err != nil {
								t.Fatalf("%s: %v", ctx, err)
							}
							for i := range queries {
								equalResults(t, fmt.Sprintf("%s parallelism=%d batch vs single", ctx, par), want[i], got[i])
							}
							if stBatch != stSingle {
								t.Fatalf("%s parallelism=%d: batch stats %+v, per-query sum %+v", ctx, par, stBatch, stSingle)
							}
						}
					}
				}
			}
			for name, c := range map[string]struct {
				req     BatchSearchRequest
				wantErr error
			}{
				"k=0":         {BatchSearchRequest{Queries: queries, K: 0, Lambda: 0.5}, ErrInvalidK},
				"k=0 empty":   {BatchSearchRequest{K: 0, Lambda: 0.5}, ErrInvalidK},
				"lambda":      {BatchSearchRequest{Queries: queries, K: 5, Lambda: math.Inf(1)}, ErrInvalidLambda},
				"wrong dim":   {BatchSearchRequest{Queries: bad, K: 5, Lambda: 0.5}, ErrInvalidQuery},
				"deadline":    {BatchSearchRequest{Queries: queries, K: 5, Lambda: 0.5, Deadline: -1}, ErrInvalidDeadline},
				"empty batch": {BatchSearchRequest{K: 5, Lambda: 0.5}, nil},
			} {
				got, err := api.doBatch(c.req)
				if !errors.Is(err, c.wantErr) || (c.wantErr == nil && (err != nil || got == nil || len(got) != 0)) {
					t.Fatalf("%s batch %s: got %v, err = %v, want %v", api.name, name, got, err, c.wantErr)
				}
				if name == "wrong dim" && !strings.Contains(err.Error(), "batch query 7") {
					t.Fatalf("%s: error %q does not name the offending query", api.name, err)
				}
			}
		}
	})

	// Cache participation, last because it changes the fixtures: a miss
	// fills, the next identical request hits bit-identically, CacheOff
	// and observers always execute. The bare Index never caches.
	t.Run("cache-hit", func(t *testing.T) {
		for _, api := range apis {
			if api.enableCache != nil {
				api.enableCache(64)
			}
			for ti, tc := range trials {
				ctx := fmt.Sprintf("%s trial %d", api.name, ti)
				var miss, hit, off, obsv ResponseMeta
				req := SearchRequest{Query: &tc.q, K: tc.k, Lambda: tc.lambda}
				do := func(meta *ResponseMeta, mod func(*SearchRequest)) []Result {
					r := req
					r.Meta = meta
					if mod != nil {
						mod(&r)
					}
					res, err := api.do(r)
					if err != nil {
						t.Fatalf("%s: %v", ctx, err)
					}
					return res
				}
				first := do(&miss, nil)
				second := do(&hit, func(r *SearchRequest) { r.Dst = make([]Result, 0, 32) })
				do(&off, func(r *SearchRequest) { r.Cache = CacheOff })
				do(&obsv, func(r *SearchRequest) { r.Explain = new(ExplainStats) })
				equalResults(t, ctx+" hit vs miss", first, second)
				compare(t, ctx+" hit vs scan", tc.lambda, tc.k, oracle.Search(&tc.q, tc.k, tc.lambda, nil), second)
				if want := api.enableCache != nil; miss.CacheHit || hit.CacheHit != want || off.CacheHit || obsv.CacheHit {
					t.Fatalf("%s: cacheHit miss=%v hit=%v (want %v) off=%v observed=%v",
						ctx, miss.CacheHit, hit.CacheHit, want, off.CacheHit, obsv.CacheHit)
				}
				// A range or window request with the same query and K is
				// keyed by its shape: the plain entry never answers it.
				for _, mod := range []func(*SearchRequest){
					func(r *SearchRequest) { r.Radius = at(r, r.K/2) },
					func(r *SearchRequest) { r.Window = window(r) },
				} {
					var shapeMiss, shapeHit ResponseMeta
					shaped := req
					mod(&shaped)
					equalResults(t, ctx+" shape miss vs scan", restricted(&shaped), do(&shapeMiss, mod))
					equalResults(t, ctx+" shape hit vs scan", restricted(&shaped), do(&shapeHit, mod))
					if want := api.enableCache != nil; shapeMiss.CacheHit || shapeHit.CacheHit != want {
						t.Fatalf("%s: shaped cacheHit miss=%v hit=%v, want false and %v", ctx, shapeMiss.CacheHit, shapeHit.CacheHit, want)
					}
				}
			}
		}
	})
}

// TestAPISurface keeps the entry-point permutations from growing back:
// the exported *Search*/Do* method sets of the core index and the two
// facade flavors must equal these allow-lists — Do* alone on the facade,
// every query shape being a SearchRequest field — the per-flavor
// dispatch forks the request pipeline replaced must stay gone, as must
// the batch executors beside the one pool over execute, the keyword read
// mode and the eager-clone write path, the panicking helpers of the
// deleted wrappers, the second snapshot-published flavor —
// ConcurrentIndex is ShardedIndex — core's copy-on-write clone, whose
// last caller was the compaction replay a fold through derive replaced,
// core's in-place write path, since every write lands in the overlay,
// and the state a base kept beside its rows and arrays: the deleted
// bitmap (every base row is live), the sorted lists each array is merged
// from, and the derived sections Save wrote for older readers.
func TestAPISurface(t *testing.T) {
	do := []string{"Do", "DoBatch", "DoBatchContext", "DoContext"}
	for _, c := range []struct {
		typ  reflect.Type
		want []string
	}{
		// SearchAblated is the paper-faithful reference, not an entry
		// point of the facade.
		{reflect.TypeOf(&core.Index{}), []string{"Search", "SearchAblated", "SearchApprox",
			"SearchExplainOptionsInto", "SearchOptionsInto"}},
		{reflect.TypeOf(&Index{}), do},
		{reflect.TypeOf(&ShardedIndex{}), do},
	} {
		var got []string
		for i := 0; i < c.typ.NumMethod(); i++ {
			if name := c.typ.Method(i).Name; strings.Contains(name, "Search") || strings.HasPrefix(name, "Do") {
				got = append(got, name)
			}
		}
		sort.Strings(got)
		sort.Strings(c.want)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%v entry points:\n got  %v\n want %v", c.typ, got, c.want)
		}
	}

	// The quantization and cluster-routing knobs were removed without
	// replacement: Approx means CSSIA.
	for _, typ := range []reflect.Type{reflect.TypeOf(Options{}), reflect.TypeOf(SearchRequest{}), reflect.TypeOf(BatchSearchRequest{})} {
		for i := 0; i < typ.NumField(); i++ {
			if name := typ.Field(i).Name; strings.Contains(name, "Quant") || strings.HasPrefix(name, "Route") {
				t.Errorf("%v.%s: removed knob is back", typ, name)
			}
		}
	}
	for _, typ := range []reflect.Type{reflect.TypeOf(&Index{}), reflect.TypeOf(&ShardedIndex{})} {
		if _, ok := typ.MethodByName("RouterTrained"); ok {
			t.Errorf("%v.RouterTrained is back", typ)
		}
	}
	if _, ok := reflect.TypeOf(&core.Index{}).MethodByName("CloneForWrite"); ok {
		t.Error("core.Index.CloneForWrite is back: a compaction is a fold through derive")
	}
	corePkgs, err := parser.ParseDir(token.NewFileSet(), "internal/core", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range corePkgs["core"].Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var names []string
			switch d := n.(type) {
			case *ast.StructType:
				for _, f := range d.Fields.List {
					for _, id := range f.Names {
						if id.Name == "deleted" {
							t.Error("a core struct has a deleted field again: every base row is live")
						}
					}
				}
			case *ast.FuncDecl:
				names = append(names, d.Name.Name)
			case *ast.TypeSpec:
				names = append(names, d.Name.Name)
			case *ast.Field:
				for _, id := range d.Names {
					names = append(names, id.Name)
				}
			}
			for _, name := range names {
				switch name {
				case "cowHybrid", "markOwnedHybrid", "cowState":
					t.Errorf("core's copy-on-write clone machinery (%s) is back", name)
				case "appendArenaRows", "arenaCap", "appendAnchorRow", "insertMember", "removeMember", "addToHybrid", "gathered", "tCount":
					t.Errorf("core's in-place write path (%s) is back: every write lands in the overlay", name)
				case "byDt", "dsOf", "checkOrders", "gobHybrid", "gobMember":
					t.Errorf("a base's stored lists or Save's derived sections (%s) are back: a cluster keeps only its array", name)
				}
			}
			return true
		})
	}

	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	count := map[string]int{}
	for _, f := range pkgs["cssi"].Files {
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok {
				count[fn.Name.Name]++
			}
		}
	}
	if reflect.TypeOf(&ConcurrentIndex{}) != reflect.TypeOf(&ShardedIndex{}) {
		t.Error("ConcurrentIndex is a type of its own again")
	}
	// Declarations per name: the pipeline once, a flavor's entry points
	// and sink on *Index and *ShardedIndex, the result cache on the
	// latter alone.
	for name, want := range map[string]int{"serve": 1, "serveBatch": 1, "execute": 1, "EnableResultCache": 1,
		"view": 2, "Do": 2, "DoContext": 2, "DoBatch": 2, "DoBatchContext": 2, "SetTraceSink": 2} {
		if count[name] != want {
			t.Errorf("%d functions named %s, want exactly %d", count[name], name, want)
		}
	}
	for name := range count {
		switch name {
		case "do", "doBatch", "doResolved", "doBatchResolved", "doTraced", "doBatchTraced", "doSinked", "doBatchSinked",
			"doSnap", "doBatchSnap", "searchExact", "searchExactChainTraced", "searchApprox", "searchExplain", "chainShard",
			"executeBatch", "chainBatch":
			t.Errorf("dispatch fork %s is back", name)
		case "chain", "mergeChains", "chainAt", "setChainHook":
			t.Errorf("seeded chain %s of the sharded exact read is back", name)
		case "searchSnap", "foldSpan":
			t.Errorf("facade span recorder %s is back: core writes every span", name)
		case "executeKeywords", "searchWithKeywords":
			t.Errorf("keyword read mode %s is back: a keyword request is the exact read with a row predicate", name)
		case "cloneForWrite":
			t.Errorf("eager-clone write path %s is back: every write goes through the overlay", name)
		}
		if strings.HasPrefix(name, "precheck") {
			t.Errorf("second validation %s is back", name)
		}
		switch name {
		case "checkQuery", "checkQueryVec", "checkRead", "mustResults", "keywordSearch":
			t.Errorf("panicking helper %s of the deleted wrappers is back", name)
		}
	}
}

// TestDoZeroAlloc extends the core's steady-state guarantee through the
// facade: with Dst set and no sink or Trace, Do allocates nothing on any
// single-snapshot flavor, whichever constructor wrapped it.
func TestDoZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool bypasses its caches under the race detector; zero-alloc steady state cannot hold")
	}
	ds := testDataset(t, 2000)
	queries := ds.SampleQueries(16, 6)
	var es ExplainStats
	explained := ShardedFrom(mustBuild(t, ds, Options{Seed: 24}))
	for name, do := range map[string]func(SearchRequest) ([]Result, error){
		"Index":       mustBuild(t, ds, Options{Seed: 24}).Do,
		"Concurrent":  Concurrent(mustBuild(t, ds, Options{Seed: 24})).Do,
		"ShardedFrom": ShardedFrom(mustBuild(t, ds, Options{Seed: 24})).Do,
		// Explain alone is filled by core directly.
		"ShardedFrom+Explain": func(r SearchRequest) ([]Result, error) { r.Explain = &es; return explained.Do(r) },
	} {
		buf := make([]Result, 0, 64)
		var st Stats
		query := func(i int) {
			var err error
			if buf, err = do(SearchRequest{Query: &queries[i%len(queries)], K: 10, Lambda: 0.5, Dst: buf[:0], Stats: &st}); err != nil {
				t.Fatal(err)
			}
		}
		for i := range queries { // warm-up: grow pooled scratch and buffer
			query(i)
		}
		// AllocsPerRun can see a stray allocation if GC empties the
		// sync.Pool mid-measure, so pass if any attempt is clean.
		got := 1.0
		for attempt := 0; attempt < 3 && got != 0; attempt++ {
			i := 0
			got = testing.AllocsPerRun(len(queries), func() { query(i); i++ })
		}
		if got != 0 {
			t.Errorf("%s.Do: %v allocs per steady-state query, want 0", name, got)
		}
	}
}
