package cssi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/metric"
	"repro/internal/scan"
)

// shardCounts are the partition widths the equivalence tests sweep:
// trivial (1), even powers of two (2, 4), and a prime (7) that
// exercises uneven hash buckets.
var shardCounts = []int{1, 2, 4, 7}

func mustBuildSharded(t *testing.T, ds *Dataset, p int, opts Options) *ShardedIndex {
	t.Helper()
	s, err := BuildSharded(ds, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func equalResults(t *testing.T, ctx string, want, got []Result) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d results, want %d", ctx, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: result %d = %+v, want %+v", ctx, i, got[i], want[i])
		}
	}
}

// The sharded scatter/gather must reproduce the unsharded index
// BIT-IDENTICALLY for every exact query type — same IDs, same
// distances, same tie-broken order — at every shard count, both right
// after the build and after a maintenance workload routed through both.
func TestShardedMatchesUnsharded(t *testing.T) {
	ds := testDataset(t, 900)
	queries := ds.SampleQueries(25, 3)

	for _, p := range shardCounts {
		t.Run(fmt.Sprintf("shards=%d", p), func(t *testing.T) {
			// Fresh reference per subtest: the maintenance phase below
			// mutates it.
			flat := mustBuild(t, ds, Options{Seed: 17})
			s := mustBuildSharded(t, ds, p, Options{Seed: 17})
			if s.NumShards() != p {
				t.Fatalf("NumShards = %d", s.NumShards())
			}
			if s.Len() != flat.Len() {
				t.Fatalf("Len = %d, want %d", s.Len(), flat.Len())
			}
			if err := s.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			compare := func(stage string) {
				for qi := range queries {
					q := &queries[qi]
					for _, lambda := range []float64{0, 0.5, 1} {
						ctx := fmt.Sprintf("%s q%d λ=%v", stage, qi, lambda)
						equalResults(t, ctx+" Search", flat.Search(q, 10, lambda), s.Search(q, 10, lambda))
						equalResults(t, ctx+" RangeSearch", flat.RangeSearch(q, 0.12, lambda), s.RangeSearch(q, 0.12, lambda))
					}
					equalResults(t, stage+" SearchInBox",
						flat.SearchInBox(q, 0.2, 0.2, 0.8, 0.8, 8), s.SearchInBox(q, 0.2, 0.2, 0.8, 0.8, 8))
				}
				flatBatch := mustDoBatch(t, flat, queries, 7, 0.5)
				gotBatch, err := s.DoBatch(BatchSearchRequest{Queries: queries, K: 7, Lambda: 0.5})
				if err != nil {
					t.Fatal(err)
				}
				for qi := range queries {
					equalResults(t, fmt.Sprintf("%s batch q%d", stage, qi), flatBatch[qi], gotBatch[qi])
				}
				// SearchApprox is genuinely approximate and its pruning
				// depends on the per-shard clustering, so sharded CSSIA is
				// not bit-identical to unsharded CSSIA. What must hold: every
				// reported distance is the TRUE distance of that ID (merging
				// cannot fabricate results), the order is canonical, and at
				// P=1 the answers coincide exactly.
				for qi := range queries {
					q := &queries[qi]
					approx := s.SearchApprox(q, 10, 0.5)
					if len(approx) != 10 {
						t.Fatalf("%s approx q%d: %d results", stage, qi, len(approx))
					}
					for i, r := range approx {
						if i > 0 && !lessResult(approx[i-1], r) {
							t.Fatalf("%s approx q%d: results out of canonical order at %d", stage, qi, i)
						}
						o, ok := flat.Object(r.ID)
						if !ok {
							t.Fatalf("%s approx q%d: unknown ID %d", stage, qi, r.ID)
						}
						if want := flat.space.Distance(nil, 0.5, q, o); r.Dist != want {
							t.Fatalf("%s approx q%d: ID %d dist %v, true %v", stage, qi, r.ID, r.Dist, want)
						}
					}
					if p == 1 {
						equalResults(t, stage+" approx@1", flat.SearchApprox(q, 10, 0.5), approx)
					}
				}
			}
			compare("built")

			// Route the same maintenance through both and re-compare.
			for i := 0; i < 60; i++ {
				o := ds.Objects[i*7%ds.Len()]
				o.ID = uint32(500_000 + i)
				o.X = float64(i%10) / 10
				if err := flat.Insert(o); err != nil {
					t.Fatal(err)
				}
				if err := s.Insert(o); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 40; i++ {
				id := ds.Objects[i*11%ds.Len()].ID
				ferr, serr := flat.Delete(id), s.Delete(id)
				if (ferr == nil) != (serr == nil) {
					t.Fatalf("delete %d: flat=%v sharded=%v", id, ferr, serr)
				}
			}
			if s.Len() != flat.Len() {
				t.Fatalf("after maintenance Len = %d, want %d", s.Len(), flat.Len())
			}
			if err := s.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			compare("maintained")
		})
	}
}

func lessResult(a, b Result) bool {
	return a.Dist < b.Dist || (a.Dist == b.Dist && a.ID < b.ID)
}

// The batched entry points' validation contract holds across shards:
// inline empty-batch answers, ErrInvalidK for k <= 0.
func TestShardedBatchValidation(t *testing.T) {
	ds := testDataset(t, 300)
	s := mustBuildSharded(t, ds, 3, Options{Seed: 4})
	if got, err := s.DoBatch(BatchSearchRequest{Queries: nil, K: 5, Lambda: 0.5}); err != nil || got == nil || len(got) != 0 {
		t.Fatalf("empty batch: %v, err %v", got, err)
	}
	if _, err := s.DoBatch(BatchSearchRequest{Queries: ds.SampleQueries(2, 1), K: 0, Lambda: 0.5}); !errors.Is(err, ErrInvalidK) {
		t.Fatalf("k=0: err %v, want ErrInvalidK", err)
	}
}

// Routing invariants: writes land on the hash-assigned shard, mixed
// batches split per shard with per-shard atomicity, and lookups route
// back to the same shard.
func TestShardedRoutingAndApplyBatch(t *testing.T) {
	ds := testDataset(t, 400)
	s := mustBuildSharded(t, ds, 4, Options{Seed: 9})

	ops := make([]Op, 0, 50)
	for i := 0; i < 30; i++ {
		o := ds.Objects[i]
		o.ID = uint32(700_000 + i)
		ops = append(ops, Op{Kind: OpInsert, Object: o})
	}
	for i := 0; i < 20; i++ {
		ops = append(ops, Op{Kind: OpDelete, ID: ds.Objects[i*5].ID})
	}
	before := s.Len()
	if err := s.ApplyBatch(ops); err != nil {
		t.Fatal(err)
	}
	if got, want := s.Len(), before+30-20; got != want {
		t.Fatalf("Len after batch = %d, want %d", got, want)
	}
	for i := 0; i < 30; i++ {
		id := uint32(700_000 + i)
		o, ok := s.Object(id)
		if !ok || o.ID != id {
			t.Fatalf("inserted object %d not found via routed lookup", id)
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// A batch whose ops fail on one shard must leave the others applied
	// (per-shard atomicity) and report the error.
	bad := []Op{
		{Kind: OpDelete, ID: 999_999_999}, // unknown everywhere
		{Kind: OpInsert, Object: func() Object {
			o := ds.Objects[1]
			o.ID = 800_001
			return o
		}()},
	}
	if err := s.ApplyBatch(bad); err == nil {
		t.Fatal("expected error from unknown-ID delete")
	}
	if s.ShardFor(999_999_999) != s.ShardFor(800_001) {
		if _, ok := s.Object(800_001); !ok {
			t.Fatal("insert on an unaffected shard was rolled back")
		}
	}
	// ShardStats agree with the aggregate view.
	total := 0
	for _, st := range s.ShardStats() {
		if st.Objects == 0 {
			t.Fatalf("shard %d empty", st.Shard)
		}
		total += st.Objects
	}
	if total != s.Len() {
		t.Fatalf("ShardStats objects sum %d, Len %d", total, s.Len())
	}
}

// Parallel rebuild publishes per shard without changing any exact
// answer, blocking or background.
func TestShardedRebuild(t *testing.T) {
	ds := testDataset(t, 600)
	s := mustBuildSharded(t, ds, 4, Options{Seed: 6})
	flat := mustBuild(t, ds, Options{Seed: 6})
	q := ds.SampleQueries(1, 8)[0]

	want := flat.Search(&q, 10, 0.5)
	if err := s.Rebuild(); err != nil {
		t.Fatal(err)
	}
	equalResults(t, "after Rebuild", want, s.Search(&q, 10, 0.5))

	done, err := s.RebuildInBackground()
	if err != nil {
		t.Fatal(err)
	}
	// Writes routed during the rebuild must survive publication.
	o := ds.Objects[3]
	o.ID = 910_000
	if err := s.Insert(o); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Object(910_000); !ok {
		t.Fatal("write during background rebuild lost at publication")
	}
	if err := flat.Insert(o); err != nil {
		t.Fatal(err)
	}
	equalResults(t, "after background rebuild", flat.Search(&q, 10, 0.5), s.Search(&q, 10, 0.5))
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Keyword search scatters and merges bit-identically to the unsharded
// filter (the keyword path is exact).
func TestShardedKeywords(t *testing.T) {
	ds := testDataset(t, 500)
	flat := mustBuild(t, ds, Options{Seed: 12})
	s := mustBuildSharded(t, ds, 3, Options{Seed: 12})
	flat.EnableKeywordFilter()
	if s.KeywordFilterEnabled() {
		t.Fatal("filter reported enabled before EnableKeywordFilter")
	}
	s.EnableKeywordFilter()
	if !s.KeywordFilterEnabled() {
		t.Fatal("filter not enabled on every shard")
	}
	q := ds.SampleQueries(1, 2)[0]
	kw := firstKeyword(t, ds)
	want, okW := flat.SearchWithKeywords(&q, 8, 0.5, kw)
	got, okG := s.SearchWithKeywords(&q, 8, 0.5, kw)
	if okW != okG {
		t.Fatalf("ok: flat %v sharded %v", okW, okG)
	}
	if okW {
		equalResults(t, "keywords", want, got)
	}
	if _, ok := s.SearchWithKeywords(&q, 8, 0.5); ok {
		t.Fatal("empty keyword list should be unusable")
	}
}

// firstKeyword picks a keyword that actually occurs in the dataset.
func firstKeyword(t *testing.T, ds *Dataset) string {
	t.Helper()
	for i := range ds.Objects {
		if txt := ds.Objects[i].Text; len(txt) > 0 {
			for j := 0; j <= len(txt); j++ {
				if j == len(txt) || txt[j] == ' ' {
					if j >= 4 {
						return txt[:j]
					}
					break
				}
			}
		}
	}
	t.Skip("dataset has no usable keyword")
	return ""
}

// SaveDir/LoadSharded round-trip: identical results, preserved shard
// count and routing; a legacy single-index file loads as one shard.
func TestShardedPersistRoundTrip(t *testing.T) {
	ds := testDataset(t, 500)
	s := mustBuildSharded(t, ds, 3, Options{Seed: 20})
	queries := ds.SampleQueries(10, 5)
	dir := filepath.Join(t.TempDir(), "sharded")
	if err := s.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSharded(dir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumShards() != 3 || loaded.Len() != s.Len() || loaded.Dim() != s.Dim() {
		t.Fatalf("loaded shape: P=%d n=%d dim=%d", loaded.NumShards(), loaded.Len(), loaded.Dim())
	}
	if err := loaded.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for qi := range queries {
		q := &queries[qi]
		equalResults(t, "loaded search", s.Search(q, 10, 0.5), loaded.Search(q, 10, 0.5))
	}
	// Maintenance on the loaded instance keeps routing.
	o := ds.Objects[0]
	o.ID = 920_000
	if err := loaded.Insert(o); err != nil {
		t.Fatal(err)
	}
	if err := loaded.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// Legacy path: a plain Index.Save file loads as a 1-shard instance.
	flat := mustBuild(t, ds, Options{Seed: 20})
	legacy := filepath.Join(filepath.Dir(dir), "legacy.cssi")
	if err := writeFileAtomicTest(t, legacy, flat); err != nil {
		t.Fatal(err)
	}
	one, err := LoadSharded(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if one.NumShards() != 1 || one.Len() != flat.Len() {
		t.Fatalf("legacy load: P=%d n=%d", one.NumShards(), one.Len())
	}
	q := &queries[0]
	equalResults(t, "legacy search", flat.Search(q, 10, 0.5), one.Search(q, 10, 0.5))

	// A manifest is outside input: a file name that leaves the directory
	// and a shard that disagrees with shard 0 on the normalizers are
	// refused, each a well-formed index file on its own.
	angular := mustBuild(t, ds, Options{Seed: 20, AngularSemantic: true})
	if err := writeFileAtomicTest(t, filepath.Join(dir, "angular.cssi"), angular); err != nil {
		t.Fatal(err)
	}
	for name, files := range map[string][]string{
		"file outside the directory": {"../legacy.cssi"},
		"disagreeing normalizers":    {"shard-0000.cssi", "angular.cssi"},
	} {
		raw, err := json.Marshal(shardedManifest{Format: shardedManifestFormat, Ver: shardedManifestVer, Shards: len(files), Files: files})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, shardedManifestName), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadSharded(dir); err == nil {
			t.Fatalf("%s: loaded", name)
		}
	}
}

func writeFileAtomicTest(t *testing.T, path string, idx *Index) error {
	t.Helper()
	return writeFileAtomic(path, func(f *os.File) error { return idx.Save(f) })
}

// BuildSharded must refuse configurations it cannot serve rather than
// building broken shards.
func TestBuildShardedRejects(t *testing.T) {
	ds := testDataset(t, 100)
	if _, err := BuildSharded(ds, 0, Options{}); err == nil {
		t.Fatal("accepted 0 shards")
	}
	if _, err := BuildSharded(nil, 2, Options{}); err == nil {
		t.Fatal("accepted nil dataset")
	}
	// 2 objects over 64 shards: some shard is empty with certainty.
	tiny := &Dataset{Objects: ds.Objects[:2], Dim: ds.Dim}
	if _, err := BuildSharded(tiny, 64, Options{}); err == nil {
		t.Fatal("accepted a shard count guaranteeing empty shards")
	}
}

// Stress: concurrent routed writes, scatter/gather reads, a background
// rebuild wave, and live invariant checks. Run under -race in CI; the
// assertions also hold without it.
func TestShardedStress(t *testing.T) {
	ds := testDataset(t, 600)
	s := mustBuildSharded(t, ds, 4, Options{Seed: 33})
	queries := ds.SampleQueries(8, 7)
	var wg sync.WaitGroup
	var stop atomic.Bool

	// Writers: disjoint ID ranges, routed through the sharding layer.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				o := ds.Objects[(g*13+i)%ds.Len()]
				o.ID = uint32(600_000 + g*1000 + i)
				if err := s.Insert(o); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
				if i%3 == 0 {
					if err := s.Delete(o.ID); err != nil {
						t.Errorf("delete: %v", err)
						return
					}
				}
			}
		}(g)
	}
	// Readers: every scatter path.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; !stop.Load() && i < 60; i++ {
				q := &queries[(g+i)%len(queries)]
				if got := s.Search(q, 5, 0.5); len(got) != 5 {
					t.Errorf("search returned %d", len(got))
					return
				}
				s.SearchApprox(q, 5, 0.5)
				s.RangeSearch(q, 0.05, 0.5)
				s.SearchInBox(q, 0, 0, 1, 1, 3)
				if _, err := s.DoBatch(BatchSearchRequest{Queries: queries[:2], K: 3, Lambda: 0.5}); err != nil {
					t.Errorf("batch: %v", err)
					return
				}
				s.Len()
				s.ShardStats()
			}
		}(g)
	}
	// One background rebuild mid-flight.
	wg.Add(1)
	go func() {
		defer wg.Done()
		done, err := s.RebuildInBackground()
		if err != nil {
			t.Errorf("rebuild start: %v", err)
			return
		}
		if err := <-done; err != nil {
			t.Errorf("rebuild: %v", err)
		}
	}()
	// Live invariant checks against in-flight snapshots.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if err := s.CheckInvariants(); err != nil {
				t.Errorf("invariants mid-flight: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	stop.Store(true)
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedUnanchoredRows follows the rebuild signal across shards:
// every insert is one unanchored row on the shard that owns it — through
// the write overlay and across its compaction — and a rebuild anchors
// them all, with exact answers throughout.
func TestShardedUnanchoredRows(t *testing.T) {
	ds := testDataset(t, 900)
	s := mustBuildSharded(t, ds, 3, Options{Seed: 5, DeltaCompactThreshold: 4})
	space, err := metric.NewSpace(ds)
	if err != nil {
		t.Fatal(err)
	}
	unanchored := func() int {
		n := 0
		for _, st := range s.ShardStats() {
			n += st.Unanchored
		}
		return n
	}
	check := func(ctx string, live *Dataset, want int) {
		t.Helper()
		if got := unanchored(); got != want {
			t.Fatalf("%s: %d unanchored rows, want %d", ctx, got, want)
		}
		oracle := scan.New(live, space)
		var es ExplainStats
		for _, lambda := range []float64{0, 0.5, 1} {
			q := ds.Objects[17]
			got, err := s.Do(SearchRequest{Query: &q, K: 10, Lambda: lambda, Explain: &es})
			if err != nil {
				t.Fatal(err)
			}
			equalResults(t, ctx, oracle.Search(&q, 10, lambda, nil), got)
		}
		if es.AnchorPruned == 0 || es.AnchorPruned > es.VisitedObjects {
			t.Fatalf("%s: explain %+v", ctx, es.Stats)
		}
	}
	check("built", ds, 0)

	live := &Dataset{Dim: ds.Dim, Objects: append([]Object(nil), ds.Objects...)}
	for i := 0; i < 14; i++ {
		o := ds.Objects[i*11]
		o.ID = uint32(700_000 + i)
		o.X += 0.01
		if err := s.Insert(o); err != nil {
			t.Fatal(err)
		}
		live.Objects = append(live.Objects, o)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	check("inserted", live, 14)
	// A threshold-triggered background compaction may still be replaying;
	// Rebuild refuses to start beside it.
	for err = s.Rebuild(); errors.Is(err, ErrRebuildInProgress); err = s.Rebuild() {
		runtime.Gosched()
	}
	if err != nil {
		t.Fatal(err)
	}
	check("rebuilt", live, 0)
}

// doStriped is s.DoContext with the read dealt onto w stripes instead
// of the host's scatterDegree: the stripe count is a field of the view
// the pipeline serves from, never a request option.
func doStriped(s *ShardedIndex, w int, ctx context.Context, req SearchRequest) ([]Result, error) {
	v := s.view()
	v.stripes = w
	return serve(ctx, v, &req)
}

// firedCtx is a live context whose Done channel is already closed when
// the search first polls it: a budget that lands mid-flight, made
// deterministic. Err stays nil, so the pipeline neither rejects the
// request on arrival nor swaps the partial answer for an error.
type firedCtx struct {
	context.Context
	done chan struct{}
}

func (c firedCtx) Done() <-chan struct{} { return c.done }

// TestStripedChainEquivalence pins the one shape of a sharded exact
// read: for every stripe count w in 1..P the answer equals the flat
// index's and the linear scan's rank by rank — IDs, distances, and the
// ID tie-break where equal objects sit on different shards and so on
// different stripes — over freshly built shards, over write overlays
// with tombstones, and after compaction; observing the read changes
// neither the answer nor the work counters, which repeat exactly for a
// fixed w; a budget cut on any stripe makes the answer a partial but
// admissible prefix; and all of it holds while ApplyBatch publishes
// concurrently.
func TestStripedChainEquivalence(t *testing.T) {
	ds := testDataset(t, 600)
	for _, p := range []int{2, 3, 4, 7} {
		t.Run(fmt.Sprintf("shards=%d", p), func(t *testing.T) {
			flat := mustBuild(t, ds, Options{Seed: 23})
			s := mustBuildSharded(t, ds, p, Options{Seed: 23})
			live := make(map[uint32]Object, ds.Len())
			for _, o := range ds.Objects {
				live[o.ID] = o
			}
			apply := func(op Op) {
				t.Helper()
				if err := s.ApplyBatch([]Op{op}); err != nil {
					t.Fatal(err)
				}
				var err error
				switch op.Kind {
				case OpInsert:
					err, live[op.Object.ID] = flat.Insert(op.Object), op.Object
				case OpDelete:
					err = flat.Delete(op.ID)
					delete(live, op.ID)
				case OpUpdate:
					err, live[op.Object.ID] = flat.Update(op.Object), op.Object
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			queries := ds.SampleQueries(4, uint64(p))
			tieQ := &queries[0]
			const tieK = 10

			check := func(stage string) {
				t.Helper()
				objs := make([]Object, 0, len(live))
				for _, o := range live {
					objs = append(objs, o)
				}
				oracle := scan.New(&Dataset{Objects: objs, Dim: ds.Dim}, flat.space)
				for qi := range queries {
					q := &queries[qi]
					for _, lambda := range []float64{0, 0.5, 1} {
						for _, k := range []int{1, tieK, len(live) + 5} {
							want := oracle.Search(q, k, lambda, nil)
							ctx := fmt.Sprintf("%s q%d λ=%v k=%d", stage, qi, lambda, k)
							equalResults(t, ctx+" flat vs scan", want, flat.Search(q, k, lambda))
							for w := 1; w <= p; w++ {
								checkStripes(t, fmt.Sprintf("%s w=%d", ctx, w), s, w, flat, live, q, k, lambda, want)
							}
						}
					}
				}
			}
			check("built")

			for _, op := range overlayOps(ds, 60) {
				apply(op)
			}
			// Two copies per shard of the object ranked third from last
			// in tieQ's top-k, under fresh ascending IDs: they tie with
			// it, only the two smallest IDs make the top-k, and which
			// shards — and stripes — hold those differs with P and w.
			twin := live[flat.Search(tieQ, tieK, 0.5)[tieK-3].ID]
			perShard := make([]int, p)
			for id := uint32(900_000); slices.Min(perShard) < 2; id++ {
				if sh := s.ShardFor(id); perShard[sh] < 2 {
					perShard[sh]++
					twin.ID = id
					apply(Op{Kind: OpInsert, Object: twin})
				}
			}
			buffered := 0
			for _, st := range s.ShardStats() {
				buffered += st.DeltaOps
			}
			if buffered == 0 {
				t.Fatal("no shard buffered delta ops")
			}
			check("overlay")

			if err := s.Compact(); err != nil {
				t.Fatal(err)
			}
			check("compacted")
			if err := s.CheckInvariants(); err != nil {
				t.Fatal(err)
			}

			// Concurrent ApplyBatch: the writer inserts and deletes copies
			// of objects that rank far behind every reader's k-th result,
			// under a small threshold so background compactions publish
			// too — the answers must not move, on any stripe count.
			if err := s.SetDeltaThreshold(8); err != nil {
				t.Fatal(err)
			}
			far := flat.Search(tieQ, len(live), 0.5)[len(live)/2:]
			want := flat.Search(tieQ, tieK, 0.5)
			var done atomic.Bool
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer done.Store(true)
				for i := 0; i < 60; i++ {
					o := live[far[i%len(far)].ID]
					o.ID = uint32(2_000_000 + i)
					if err := s.ApplyBatch([]Op{{Kind: OpInsert, Object: o}}); err != nil {
						t.Error(err)
						return
					}
					if err := s.ApplyBatch([]Op{{Kind: OpDelete, ID: o.ID}}); err != nil {
						t.Error(err)
						return
					}
				}
			}()
			for writing := true; writing; {
				writing = !done.Load() // one more round after the last write
				for w := 1; w <= p; w++ {
					got, err := doStriped(s, w, context.Background(), SearchRequest{Query: tieQ, K: tieK, Lambda: 0.5})
					if err != nil {
						t.Fatal(err)
					}
					equalResults(t, fmt.Sprintf("under writes w=%d", w), want, got)
				}
			}
			wg.Wait()
		})
	}
}

// checkStripes runs one exact request on w stripes of s, plain and
// observed, twice each, and under a fired budget.
func checkStripes(t *testing.T, ctx string, s *ShardedIndex, w int, flat *Index, live map[uint32]Object, q *Object, k int, lambda float64, want []Result) {
	t.Helper()
	var plain [2]Stats
	for i := range plain {
		got, err := doStriped(s, w, context.Background(), SearchRequest{Query: q, K: k, Lambda: lambda, Stats: &plain[i]})
		if err != nil {
			t.Fatal(err)
		}
		equalResults(t, ctx, want, got)
	}
	if plain[0] != plain[1] {
		t.Fatalf("%s: stats differ between two runs: %+v vs %+v", ctx, plain[0], plain[1])
	}
	var es ExplainStats
	var tr SearchTrace
	var observed Stats
	got, err := doStriped(s, w, context.Background(), SearchRequest{Query: q, K: k, Lambda: lambda, Stats: &observed, Explain: &es, Trace: &tr})
	if err != nil {
		t.Fatal(err)
	}
	equalResults(t, ctx+" observed", want, got)
	if observed != plain[0] || es.Stats != plain[0] || tr.Total.Stats != plain[0] {
		t.Fatalf("%s: observed stats %+v / explain %+v / trace %+v, unobserved %+v", ctx, observed, es.Stats, tr.Total.Stats, plain[0])
	}
	if len(tr.Shards) != s.NumShards() || tr.Parallel != (w > 1) {
		t.Fatalf("%s: trace has %d spans, parallel=%v", ctx, len(tr.Shards), tr.Parallel)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}

	// The budget fires at every link's first poll: whatever comes back
	// is flagged partial and is the exact top-k of what was examined —
	// true distances of live objects, in canonical order, none ranked
	// better than the complete answer ranks it.
	var meta ResponseMeta
	fired := firedCtx{context.Background(), make(chan struct{})}
	close(fired.done)
	cut, err := doStriped(s, w, fired, SearchRequest{Query: q, K: k, Lambda: lambda, Meta: &meta})
	if err != nil {
		t.Fatal(err)
	}
	if !meta.Partial || len(cut) > len(want) {
		t.Fatalf("%s: fired budget: partial=%v, %d results of %d", ctx, meta.Partial, len(cut), len(want))
	}
	for i, r := range cut {
		o, ok := live[r.ID]
		if !ok || r.Dist != flat.space.Distance(nil, lambda, q, &o) {
			t.Fatalf("%s: fired budget: result %d = %+v is not a live object at its true distance", ctx, i, r)
		}
		if i > 0 && !lessResult(cut[i-1], r) {
			t.Fatalf("%s: fired budget: results out of canonical order at %d", ctx, i)
		}
		if r.Dist < want[i].Dist {
			t.Fatalf("%s: fired budget: rank %d at %v beats the complete answer's %v", ctx, i, r.Dist, want[i].Dist)
		}
	}
}

// TestFanOutReraisesWorkerPanic pins the recoverability of the facade's
// fan-outs: a panic on a spawned goroutine would kill the process, so
// fanOut hands it to the calling goroutine once every worker is done.
func TestFanOutReraisesWorkerPanic(t *testing.T) {
	var ran atomic.Int32
	defer func() {
		if r := recover(); r != "worker 2" {
			t.Fatalf("recovered %v, want the worker's panic", r)
		}
		if ran.Load() != 3 {
			t.Fatalf("%d of 3 workers ran", ran.Load())
		}
	}()
	fanOut(3, func(g int) {
		ran.Add(1)
		if g == 2 {
			panic("worker 2")
		}
	})
	t.Fatal("fanOut returned")
}
