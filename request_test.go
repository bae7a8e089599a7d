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
	// doChained is do with the read dealt onto one stripe, whatever the
	// host's: the way an exact batch answers each of its queries.
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
		s := mustBuildSharded(t, ds, p, opts)
		if keywordFilter {
			s.EnableKeywordFilter()
		}
		apis = append(apis, searchAPI{
			name: fmt.Sprintf("sharded-P%d", p), do: s.Do, doBatch: s.DoBatch, doCtx: s.DoContext, setSink: s.SetTraceSink, del: s.Delete,
			enableCache: s.EnableResultCache, snaps: p,
			doChained: func(req SearchRequest) ([]Result, error) { return doStriped(s, 1, context.Background(), req) },
		})
	}
	return apis
}

// TestRequestConformance is the one cross-flavor table: every request
// shape runs against every flavor, and must (a) answer exact requests
// bit-identically to the linear scan, (b) agree with the flat index on
// the full answer — IDs, tie order — wherever the answer is defined by
// the data alone, (c) report the same error class and Meta flags on
// every flavor, and (d) leave observers (Explain, Trace) with exactly
// the Stats of the same un-observed request.
func TestRequestConformance(t *testing.T) {
	// Large enough that Build trains the cluster router.
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
	shapes := []shape{
		{name: "exact", exact: true},
		{name: "approx", mod: func(r *SearchRequest) { r.Approx = true }, perFlavor: true},
		{name: "routed", mod: func(r *SearchRequest) { r.Route, r.Stats = true, new(Stats) }, exact: true,
			check: func(t *testing.T, api searchAPI, r *SearchRequest, got []Result, plain Stats) {
				if *r.Stats != plain {
					t.Fatalf("Route changed an exact search's work: %+v, unrouted %+v", *r.Stats, plain)
				}
			}},
		{name: "routed-approx", mod: func(r *SearchRequest) { r.Approx, r.Route = true, true }, perFlavor: true},
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
				if tr.Total.Stats != plain {
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
		{name: "invalid/route-target-nan", mod: func(r *SearchRequest) { r.Approx, r.Route, r.RouteTarget = true, true, math.NaN() }, wantErr: ErrUnsupportedRequest},
		{name: "invalid/keywords+approx", mod: func(r *SearchRequest) { r.Keywords, r.Approx = []string{kw}, true }, wantErr: ErrUnsupportedRequest},
		{name: "invalid/keywords+explain", mod: func(r *SearchRequest) { r.Keywords, r.Explain = []string{kw}, new(ExplainStats) }, wantErr: ErrUnsupportedRequest},
		{name: "invalid/keywords+trace", mod: func(r *SearchRequest) { r.Keywords, r.Trace = []string{kw}, new(SearchTrace) }, wantErr: ErrUnsupportedRequest},
		{name: "invalid/stop-word-keywords", mod: func(r *SearchRequest) { r.Keywords = []string{"of"} }, wantErr: ErrUnusableKeywords},
		{name: "invalid/negative-deadline", mod: func(r *SearchRequest) { r.Deadline = -time.Second }, wantErr: ErrInvalidDeadline},
		{name: "invalid/cache-mode", mod: func(r *SearchRequest) { r.Cache = CacheMode(99) }, wantErr: ErrUnsupportedRequest},
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

	// Route on an exact request is accepted and changes nothing at the
	// corners of the ordering either: λ = 1 (every semantic share of the
	// bound is 0, so whole rows of clusters tie), λ = 0, k ≥ n, an index
	// of one hybrid cluster, and an index whose every object is deleted.
	t.Run("routed-edges", func(t *testing.T) {
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
						got, err := api.do(SearchRequest{Query: &q, K: k, Lambda: lambda, Route: true})
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
	// read for an exact batch, which chains every query through all the
	// snapshots whatever the host's stripe count.
	t.Run("batch", func(t *testing.T) {
		queries := ds.SampleQueries(12, 9)
		bad := append([]Object(nil), queries...)
		bad[7].Vec = bad[7].Vec[:5]
		for _, api := range apis {
			for _, mod := range []func(*SearchRequest){
				nil,
				func(r *SearchRequest) { r.Approx = true },
				func(r *SearchRequest) { r.Route = true },
			} {
				one := SearchRequest{K: 7, Lambda: 0.4}
				if mod != nil {
					mod(&one)
				}
				var stBatch, stSingle Stats
				got, err := api.doBatch(BatchSearchRequest{Queries: queries, K: one.K, Lambda: one.Lambda, Approx: one.Approx,
					Route: one.Route, Parallelism: 2, Stats: &stBatch})
				if err != nil {
					t.Fatalf("%s: %v", api.name, err)
				}
				for i := range queries {
					one.Query, one.Stats = &queries[i], &stSingle
					do := api.do
					if !one.Approx {
						do = api.doChained
					}
					want, err := do(one)
					if err != nil {
						t.Fatal(err)
					}
					equalResults(t, api.name+" batch vs single", want, got[i])
				}
				if stBatch != stSingle {
					t.Fatalf("%s: batch stats %+v, per-query sum %+v", api.name, stBatch, stSingle)
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
			}
		}
	})
}

// TestSearchWrappersPanic pins the quickstart wrappers' contract: what
// Do reports as a typed error, Search/SearchApprox/SearchWithKeywords
// panic on (their signatures have no error to return).
func TestSearchWrappersPanic(t *testing.T) {
	ds := testDataset(t, 300)
	s := mustBuildSharded(t, ds, 2, Options{Seed: 7})
	s.EnableKeywordFilter()
	short := ds.Objects[0]
	short.Vec = short.Vec[:3]
	for name, fn := range map[string]func(){
		"k=0":          func() { s.Search(&ds.Objects[0], 0, 0.5) },
		"lambda":       func() { s.SearchApprox(&ds.Objects[0], 5, 2) },
		"wrong dim":    func() { s.Search(&short, 5, 0.5) },
		"keywords nil": func() { s.SearchWithKeywords(nil, 5, 0.5, "word") },
		"keywords no filt": func() {
			mustBuildSharded(t, ds, 2, Options{Seed: 7}).SearchWithKeywords(&ds.Objects[0], 5, 0.5, "word")
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestAPISurface keeps the entry-point permutations from growing back:
// the exported Search*/Do* method sets of the core index and the two
// facade flavors must equal these allow-lists, the per-flavor dispatch
// forks the request pipeline replaced must stay gone, and so must the
// second snapshot-published flavor — ConcurrentIndex is ShardedIndex.
func TestAPISurface(t *testing.T) {
	do := []string{"Do", "DoBatch", "DoBatchContext", "DoContext"}
	for _, c := range []struct {
		typ  reflect.Type
		want []string
	}{
		// SearchAblated, SearchFiltered and SearchInBox are other query
		// types, not k-NN entry points.
		{reflect.TypeOf(&core.Index{}), []string{"Search", "SearchAblated", "SearchApprox", "SearchBatch",
			"SearchExplainOptionsInto", "SearchFiltered", "SearchInBox", "SearchOptionsInto"}},
		{reflect.TypeOf(&Index{}), append([]string{"Search", "SearchApprox", "SearchInBox", "SearchInBoxStats", "SearchWithKeywords"}, do...)},
		{reflect.TypeOf(&ShardedIndex{}), append([]string{"Search", "SearchApprox", "SearchInBox", "SearchInBoxStats", "SearchWithKeywords"}, do...)},
	} {
		var got []string
		for i := 0; i < c.typ.NumMethod(); i++ {
			if name := c.typ.Method(i).Name; strings.HasPrefix(name, "Search") || strings.HasPrefix(name, "Do") {
				got = append(got, name)
			}
		}
		sort.Strings(got)
		sort.Strings(c.want)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%v entry points:\n got  %v\n want %v", c.typ, got, c.want)
		}
	}

	// The quantization knobs were removed without replacement.
	for _, typ := range []reflect.Type{reflect.TypeOf(Options{}), reflect.TypeOf(SearchRequest{}), reflect.TypeOf(BatchSearchRequest{})} {
		for i := 0; i < typ.NumField(); i++ {
			if name := typ.Field(i).Name; strings.Contains(name, "Quant") {
				t.Errorf("%v.%s: quantization knob is back", typ, name)
			}
		}
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
			"doSnap", "doBatchSnap", "searchExact", "searchExactChainTraced", "searchApprox", "searchExplain", "chainShard":
			t.Errorf("dispatch fork %s is back", name)
		}
		if strings.HasPrefix(name, "precheck") {
			t.Errorf("second validation %s is back", name)
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
		// Explain alone records into a pooled private trace.
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
