package cssi

import (
	"context"
	"errors"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// ctxAPI adapts the flavors' context entry points to one shape:
// "concurrent" is the one-shard index, "sharded" one of several.
type ctxAPI struct {
	name    string
	do      func(context.Context, SearchRequest) ([]Result, error)
	doBatch func(context.Context, BatchSearchRequest) ([][]Result, error)
}

func ctxFixtures(t *testing.T, ds *Dataset) []ctxAPI {
	t.Helper()
	flat, err := Build(ds, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	flat.EnableKeywordFilter()
	concIdx, err := Build(ds, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	concIdx.EnableKeywordFilter()
	conc := ShardedFrom(concIdx)
	sh := mustBuildSharded(t, ds, 3, Options{Seed: 5})
	sh.EnableKeywordFilter()
	return []ctxAPI{
		{"flat", flat.DoContext, flat.DoBatchContext},
		{"concurrent", conc.DoContext, conc.DoBatchContext},
		{"sharded", sh.DoContext, sh.DoBatchContext},
	}
}

// TestDoContextEquivalence is the API-equivalence property of the
// context redesign: DoContext(Background) is Do, a zero Deadline is no
// budget, and a generous budget changes nothing — all bit-identical,
// with Meta reporting a complete answer.
func TestDoContextEquivalence(t *testing.T) {
	ds := testDataset(t, 900)
	rng := rand.New(rand.NewPCG(77, 1))
	for _, api := range ctxFixtures(t, ds) {
		t.Run(api.name, func(t *testing.T) {
			for trial := 0; trial < 10; trial++ {
				q := ds.Objects[rng.IntN(ds.Len())]
				k := 1 + rng.IntN(15)
				lambda := rng.Float64()
				want, err := api.do(context.Background(), SearchRequest{Query: &q, K: k, Lambda: lambda})
				if err != nil {
					t.Fatal(err)
				}
				var meta ResponseMeta
				got, err := api.do(context.Background(), SearchRequest{
					Query: &q, K: k, Lambda: lambda, Deadline: time.Hour, Meta: &meta,
				})
				if err != nil {
					t.Fatal(err)
				}
				equalResults(t, "budgeted vs unbudgeted", want, got)
				if meta.Partial {
					t.Fatal("hour-long budget reported a partial answer")
				}
				if meta.CacheHit {
					t.Fatal("cacheHit without a cache")
				}
			}

			queries := ds.SampleQueries(8, 3)
			want, err := api.doBatch(context.Background(), BatchSearchRequest{Queries: queries, K: 6, Lambda: 0.4})
			if err != nil {
				t.Fatal(err)
			}
			var meta ResponseMeta
			got, err := api.doBatch(context.Background(), BatchSearchRequest{
				Queries: queries, K: 6, Lambda: 0.4, Deadline: time.Hour, Meta: &meta,
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				equalResults(t, "batch budgeted vs unbudgeted", want[i], got[i])
			}
			if meta.Partial {
				t.Fatal("hour-long batch budget reported partial")
			}
		})
	}
}

// TestDoContextCancellation pins the context error contract: a context
// that is already Done fails fast with its own error, before any
// validation or search work.
func TestDoContextCancellation(t *testing.T) {
	ds := testDataset(t, 300)
	q := ds.Objects[0]
	for _, api := range ctxFixtures(t, ds) {
		t.Run(api.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := api.do(ctx, SearchRequest{Query: &q, K: 5, Lambda: 0.5}); !errors.Is(err, context.Canceled) {
				t.Fatalf("canceled ctx: err = %v, want context.Canceled", err)
			}
			expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
			defer cancel2()
			if _, err := api.do(expired, SearchRequest{Query: &q, K: 5, Lambda: 0.5}); !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("expired ctx: err = %v, want context.DeadlineExceeded", err)
			}
			if _, err := api.doBatch(ctx, BatchSearchRequest{Queries: []Object{q}, K: 5, Lambda: 0.5}); !errors.Is(err, context.Canceled) {
				t.Fatalf("canceled ctx batch: err = %v, want context.Canceled", err)
			}
		})
	}
}

// TestDoContextInvalidRequests pins the typed-error taxonomy of the
// new request fields on every flavor.
func TestDoContextInvalidRequests(t *testing.T) {
	ds := testDataset(t, 300)
	q := ds.Objects[0]
	for _, api := range ctxFixtures(t, ds) {
		t.Run(api.name, func(t *testing.T) {
			if _, err := api.do(context.Background(), SearchRequest{Query: &q, K: 5, Lambda: 0.5, Deadline: -time.Second}); !errors.Is(err, ErrInvalidDeadline) {
				t.Fatalf("negative deadline: err = %v, want ErrInvalidDeadline", err)
			}
			if _, err := api.doBatch(context.Background(), BatchSearchRequest{Queries: []Object{q}, K: 5, Lambda: 0.5, Deadline: -1}); !errors.Is(err, ErrInvalidDeadline) {
				t.Fatalf("negative batch deadline: err = %v, want ErrInvalidDeadline", err)
			}
			if _, err := api.do(context.Background(), SearchRequest{Query: &q, K: 5, Lambda: 0.5, Cache: CacheMode(99)}); !errors.Is(err, ErrUnsupportedRequest) {
				t.Fatalf("bogus cache mode: err = %v, want ErrUnsupportedRequest", err)
			}
		})
	}
}

// TestDeadlinePartial pins the admissible-truncation contract: an
// effectively-zero budget returns promptly with err == nil, at most K
// results, and Meta.Partial set — the answer is cut short, never
// corrupted — while Do without Meta still works (the flag just has
// nowhere to land).
func TestDeadlinePartial(t *testing.T) {
	ds := testDataset(t, 4000)
	for _, api := range ctxFixtures(t, ds) {
		t.Run(api.name, func(t *testing.T) {
			q := ds.Objects[1]
			var meta ResponseMeta
			res, err := api.do(context.Background(), SearchRequest{
				Query: &q, K: 5, Lambda: 0.5, Deadline: time.Nanosecond, Meta: &meta,
			})
			if err != nil {
				t.Fatalf("budget exhaustion must not be an error: %v", err)
			}
			if len(res) > 5 {
				t.Fatalf("%d results, want <= 5", len(res))
			}
			if !meta.Partial {
				t.Fatal("1ns budget over 4000 objects did not report partial")
			}
			// Every returned distance must be a true distance: re-searching
			// with no budget must place each partial result no better than
			// the full answer's kth (the partial heap is exact over a
			// subset, so its results are a subset of admissible candidates).
			full, err := api.do(context.Background(), SearchRequest{Query: &q, K: 5, Lambda: 0.5})
			if err != nil {
				t.Fatal(err)
			}
			if len(full) > 0 {
				for _, r := range res {
					if r.Dist < full[0].Dist-1e-12 {
						t.Fatalf("partial result %v beats the true best %v", r, full[0])
					}
				}
			}

			// Without Meta the same request must not panic or error.
			if _, err := api.do(context.Background(), SearchRequest{
				Query: &q, K: 5, Lambda: 0.5, Deadline: time.Nanosecond,
			}); err != nil {
				t.Fatal(err)
			}

			// Batch: per-query truncation folds into one Partial flag.
			var bm ResponseMeta
			if _, err := api.doBatch(context.Background(), BatchSearchRequest{
				Queries: ds.SampleQueries(6, 2), K: 5, Lambda: 0.5,
				Deadline: time.Nanosecond, Meta: &bm,
			}); err != nil {
				t.Fatal(err)
			}
			if !bm.Partial {
				t.Fatal("1ns batch budget did not report partial")
			}
		})
	}
}

// cachedFixture is one flavor with a result cache enabled plus the
// handles the cache property tests need (writes, stats).
type cachedFixture struct {
	name    string
	do      func(context.Context, SearchRequest) ([]Result, error)
	doBatch func(context.Context, BatchSearchRequest) ([][]Result, error)
	insert  func(Object) error
	delete  func(uint32) error
	stats   func() (CacheStats, bool)
}

func cachedFixtures(t *testing.T, ds *Dataset) []cachedFixture {
	t.Helper()
	concIdx, err := Build(ds, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	concIdx.EnableKeywordFilter()
	conc := ShardedFrom(concIdx)
	conc.EnableResultCache(0)
	sh := mustBuildSharded(t, ds, 3, Options{Seed: 11})
	sh.EnableKeywordFilter()
	sh.EnableResultCache(0)
	return []cachedFixture{
		{"concurrent", conc.DoContext, conc.DoBatchContext, conc.Insert, conc.Delete, conc.ResultCacheStats},
		{"sharded", sh.DoContext, sh.DoBatchContext, sh.Insert, sh.Delete, sh.ResultCacheStats},
	}
}

// TestResultCacheHitsAreExact is the cache correctness property: a hit
// must be bit-identical to the uncached answer, any write must
// invalidate (the next probe misses and re-answers against the new
// snapshot), and a CacheOff request bypasses without polluting.
func TestResultCacheHitsAreExact(t *testing.T) {
	ds := testDataset(t, 800)
	kw := firstKeyword(t, ds)
	rng := rand.New(rand.NewPCG(13, 2))
	for _, f := range cachedFixtures(t, ds) {
		t.Run(f.name, func(t *testing.T) {
			ctx := context.Background()
			for trial := 0; trial < 8; trial++ {
				q := ds.Objects[rng.IntN(ds.Len())]
				k := 1 + rng.IntN(12)
				lambda := rng.Float64()
				req := SearchRequest{Query: &q, K: k, Lambda: lambda}

				uncached := req
				uncached.Cache = CacheOff
				want, err := f.do(ctx, uncached)
				if err != nil {
					t.Fatal(err)
				}

				var m1, m2 ResponseMeta
				first := req
				first.Meta = &m1
				got1, err := f.do(ctx, first)
				if err != nil {
					t.Fatal(err)
				}
				if m1.CacheHit {
					t.Fatal("first probe of a fresh key reported a hit")
				}
				second := req
				second.Meta = &m2
				got2, err := f.do(ctx, second)
				if err != nil {
					t.Fatal(err)
				}
				if !m2.CacheHit {
					t.Fatal("second identical request missed the cache")
				}
				equalResults(t, "uncached vs fill", want, got1)
				equalResults(t, "uncached vs hit", want, got2)
				if m1.SnapshotID != m2.SnapshotID {
					t.Fatalf("snapshot moved without a write: %d vs %d", m1.SnapshotID, m2.SnapshotID)
				}
			}

			// Mode- and keyword-sensitive keys never collide: vary one knob,
			// demand a miss.
			q := ds.Objects[7]
			base := SearchRequest{Query: &q, K: 9, Lambda: 0.5}
			if _, err := f.do(ctx, base); err != nil {
				t.Fatal(err)
			}
			variants := []SearchRequest{
				{Query: &q, K: 10, Lambda: 0.5},
				{Query: &q, K: 9, Lambda: 0.51},
				{Query: &q, K: 9, Lambda: 0.5, Approx: true},
				{Query: &q, K: 9, Lambda: 0.5, Keywords: []string{kw}},
			}
			for i, v := range variants {
				var m ResponseMeta
				v.Meta = &m
				if _, err := f.do(ctx, v); err != nil {
					t.Fatal(err)
				}
				if m.CacheHit {
					t.Fatalf("variant %d collided with the base key", i)
				}
			}

			// A write invalidates wholesale: the cached answer must change
			// when the data does.
			probe := ds.Objects[3]
			preReq := SearchRequest{Query: &probe, K: 4, Lambda: 0.3}
			if _, err := f.do(ctx, preReq); err != nil {
				t.Fatal(err) // fill
			}
			winner := Object{ID: 4_000_017, X: probe.X, Y: probe.Y, Text: probe.Text, Vec: probe.Vec}
			if err := f.insert(winner); err != nil {
				t.Fatal(err)
			}
			var m ResponseMeta
			post := preReq
			post.Meta = &m
			got, err := f.do(ctx, post)
			if err != nil {
				t.Fatal(err)
			}
			if m.CacheHit {
				t.Fatal("probe after a write still hit the stale entry")
			}
			found := false
			for _, r := range got {
				if r.ID == winner.ID {
					found = true
				}
			}
			if !found {
				t.Fatalf("inserted exact-duplicate object missing from post-write answer: %+v", got)
			}
			if err := f.delete(winner.ID); err != nil {
				t.Fatal(err)
			}

			st, ok := f.stats()
			if !ok {
				t.Fatal("stats: cache reported disabled")
			}
			if st.Hits == 0 || st.Misses == 0 || st.Invalidations == 0 {
				t.Fatalf("counters did not move: %+v", st)
			}
		})
	}
}

// TestResultCacheNilMetaHit pins the regression where a cache hit with
// no Meta attached dereferenced nil: both the fill and the hit must
// work (and agree) without a ResponseMeta.
func TestResultCacheNilMetaHit(t *testing.T) {
	ds := testDataset(t, 400)
	for _, f := range cachedFixtures(t, ds) {
		t.Run(f.name, func(t *testing.T) {
			q := ds.Objects[2]
			req := SearchRequest{Query: &q, K: 6, Lambda: 0.5}
			first, err := f.do(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			second, err := f.do(context.Background(), req) // the hit — no Meta anywhere
			if err != nil {
				t.Fatal(err)
			}
			equalResults(t, "nil-Meta hit", first, second)
		})
	}
}

// TestResultCacheDstAppend pins the Dst contract across the cache: a
// hit appends to the caller's buffer exactly like a computed answer.
func TestResultCacheDstAppend(t *testing.T) {
	ds := testDataset(t, 400)
	for _, f := range cachedFixtures(t, ds) {
		t.Run(f.name, func(t *testing.T) {
			q := ds.Objects[5]
			req := SearchRequest{Query: &q, K: 4, Lambda: 0.5}
			want, err := f.do(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			sentinel := Result{ID: 999, Dist: -1}
			withDst := req
			withDst.Dst = []Result{sentinel}
			var m ResponseMeta
			withDst.Meta = &m
			got, err := f.do(context.Background(), withDst)
			if err != nil {
				t.Fatal(err)
			}
			if !m.CacheHit {
				t.Fatal("expected a hit on the second identical request")
			}
			if len(got) != len(want)+1 || got[0] != sentinel {
				t.Fatalf("hit did not append to Dst: %+v", got)
			}
			equalResults(t, "appended tail", want, got[1:])
		})
	}
}

// TestResultCachePartialNeverCached: a deadline-truncated answer must
// not poison the cache — the next unbudgeted request recomputes and
// returns the complete answer.
func TestResultCachePartialNeverCached(t *testing.T) {
	ds := testDataset(t, 4000)
	for _, f := range cachedFixtures(t, ds) {
		t.Run(f.name, func(t *testing.T) {
			q := ds.Objects[9]
			var pm ResponseMeta
			if _, err := f.do(context.Background(), SearchRequest{
				Query: &q, K: 5, Lambda: 0.5, Deadline: time.Nanosecond, Meta: &pm,
			}); err != nil {
				t.Fatal(err)
			}
			if !pm.Partial {
				t.Skip("budget did not truncate on this machine; nothing to pin")
			}
			var m ResponseMeta
			full, err := f.do(context.Background(), SearchRequest{Query: &q, K: 5, Lambda: 0.5, Meta: &m})
			if err != nil {
				t.Fatal(err)
			}
			if m.CacheHit {
				t.Fatal("partial answer was served from the cache")
			}
			off := SearchRequest{Query: &q, K: 5, Lambda: 0.5, Cache: CacheOff}
			want, err := f.do(context.Background(), off)
			if err != nil {
				t.Fatal(err)
			}
			equalResults(t, "post-partial recompute", want, full)
		})
	}
}

// TestBatchCacheEquivalence: batches through the cache — all-miss,
// all-hit, and mixed — always return the CacheOff batch's answer.
func TestBatchCacheEquivalence(t *testing.T) {
	ds := testDataset(t, 700)
	for _, f := range cachedFixtures(t, ds) {
		t.Run(f.name, func(t *testing.T) {
			ctx := context.Background()
			queries := ds.SampleQueries(6, 8)
			want, err := f.doBatch(ctx, BatchSearchRequest{Queries: queries, K: 5, Lambda: 0.4, Cache: CacheOff})
			if err != nil {
				t.Fatal(err)
			}
			check := func(label string, got [][]Result) {
				t.Helper()
				if len(got) != len(want) {
					t.Fatalf("%s: %d lists, want %d", label, len(got), len(want))
				}
				for i := range want {
					equalResults(t, label, want[i], got[i])
				}
			}
			var m1 ResponseMeta
			got, err := f.doBatch(ctx, BatchSearchRequest{Queries: queries, K: 5, Lambda: 0.4, Meta: &m1})
			if err != nil {
				t.Fatal(err)
			}
			check("all-miss", got)
			if m1.CacheHit {
				t.Fatal("first batch reported all-hit")
			}
			var m2 ResponseMeta
			got, err = f.doBatch(ctx, BatchSearchRequest{Queries: queries, K: 5, Lambda: 0.4, Meta: &m2})
			if err != nil {
				t.Fatal(err)
			}
			check("all-hit", got)
			if !m2.CacheHit {
				t.Fatal("second identical batch was not an all-hit")
			}
			// Mixed: extend with fresh queries; the cached prefix and the
			// executed suffix must both match the uncached batch.
			extended := ds.SampleQueries(10, 8)
			wantExt, err := f.doBatch(ctx, BatchSearchRequest{Queries: extended, K: 5, Lambda: 0.4, Cache: CacheOff})
			if err != nil {
				t.Fatal(err)
			}
			var m3 ResponseMeta
			gotExt, err := f.doBatch(ctx, BatchSearchRequest{Queries: extended, K: 5, Lambda: 0.4, Meta: &m3})
			if err != nil {
				t.Fatal(err)
			}
			if m3.CacheHit {
				t.Fatal("mixed batch reported all-hit")
			}
			if len(gotExt) != len(wantExt) {
				t.Fatalf("mixed: %d lists, want %d", len(gotExt), len(wantExt))
			}
			for i := range wantExt {
				equalResults(t, "mixed", wantExt[i], gotExt[i])
			}
		})
	}
}

// TestResultCacheChurnStress mixes cached readers, writers, and the
// write path's background compactions; run under -race this pins the
// publication/invalidation ordering. Every read must be exact for some
// recent snapshot — verified cheaply by bounding result count and
// checking sortedness.
func TestResultCacheChurnStress(t *testing.T) {
	ds := testDataset(t, 600)
	concIdx, err := Build(ds, Options{Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	conc := ShardedFrom(concIdx)
	conc.EnableResultCache(128)
	sh := mustBuildSharded(t, ds, 2, Options{Seed: 21})
	sh.EnableResultCache(128)

	type target struct {
		name   string
		do     func(context.Context, SearchRequest) ([]Result, error)
		insert func(Object) error
		delete func(uint32) error
	}
	targets := []target{
		{"concurrent", conc.DoContext, conc.Insert, conc.Delete},
		{"sharded", sh.DoContext, sh.Insert, sh.Delete},
	}
	for _, tg := range targets {
		t.Run(tg.name, func(t *testing.T) {
			var stop atomic.Bool
			var wg sync.WaitGroup
			errc := make(chan error, 16)
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(seed uint64) {
					defer wg.Done()
					rng := rand.New(rand.NewPCG(seed, 3))
					for !stop.Load() {
						q := ds.Objects[rng.IntN(ds.Len())]
						var m ResponseMeta
						res, err := tg.do(context.Background(), SearchRequest{
							Query: &q, K: 5, Lambda: 0.5, Meta: &m,
						})
						if err != nil {
							errc <- err
							return
						}
						if len(res) > 5 {
							errc <- errors.New("over-long result")
							return
						}
						for i := 1; i < len(res); i++ {
							if res[i].Dist < res[i-1].Dist {
								errc <- errors.New("unsorted result")
								return
							}
						}
					}
				}(uint64(w + 1))
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				id := uint32(5_000_000)
				rng := rand.New(rand.NewPCG(99, 4))
				for !stop.Load() {
					src := ds.Objects[rng.IntN(ds.Len())]
					o := Object{ID: id, X: src.X, Y: src.Y, Text: src.Text, Vec: src.Vec}
					if err := tg.insert(o); err != nil {
						errc <- err
						return
					}
					if err := tg.delete(id); err != nil {
						errc <- err
						return
					}
					id++
				}
			}()
			time.Sleep(250 * time.Millisecond)
			stop.Store(true)
			wg.Wait()
			close(errc)
			for err := range errc {
				t.Fatal(err)
			}
		})
	}
}
