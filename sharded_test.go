package cssi

import (
	"bytes"
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

	"repro/internal/core"
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
						r := 0.12
						for name, req := range map[string]SearchRequest{
							"Search": {Query: q, K: 10, Lambda: lambda},
							"Range":  {Query: q, K: flat.Len(), Lambda: lambda, Radius: &r},
							"Box":    {Query: q, K: 8, Lambda: lambda, Window: &Window{LoX: 0.2, LoY: 0.2, HiX: 0.8, HiY: 0.8}},
						} {
							equalResults(t, ctx+" "+name, mustDo(flat, req), mustDo(s, req))
						}
					}
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
					approx := mustDo(s, SearchRequest{Query: q, K: 10, Lambda: 0.5, Approx: true})
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
						equalResults(t, stage+" approx@1", mustDo(flat, SearchRequest{Query: q, K: 10, Lambda: 0.5, Approx: true}), approx)
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

	want := mustDo(flat, SearchRequest{Query: &q, K: 10, Lambda: 0.5})
	if err := s.Rebuild(); err != nil {
		t.Fatal(err)
	}
	equalResults(t, "after Rebuild", want, mustDo(s, SearchRequest{Query: &q, K: 10, Lambda: 0.5}))

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
	equalResults(t, "after background rebuild", mustDo(flat, SearchRequest{Query: &q, K: 10, Lambda: 0.5}), mustDo(s, SearchRequest{Query: &q, K: 10, Lambda: 0.5}))
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
	req := SearchRequest{Query: &q, K: 8, Lambda: 0.5, Keywords: []string{kw}}
	equalResults(t, "keywords", mustDo(flat, req), mustDo(s, req))
	req.Keywords = []string{"the"}
	if _, err := s.Do(req); !errors.Is(err, ErrUnusableKeywords) {
		t.Fatalf("stop-word keyword list: err %v, want ErrUnusableKeywords", err)
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
		equalResults(t, "loaded search", mustDo(s, SearchRequest{Query: q, K: 10, Lambda: 0.5}), mustDo(loaded, SearchRequest{Query: q, K: 10, Lambda: 0.5}))
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
	equalResults(t, "legacy search", mustDo(flat, SearchRequest{Query: q, K: 10, Lambda: 0.5}), mustDo(one, SearchRequest{Query: q, K: 10, Lambda: 0.5}))

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

// TestWriteFileAtomicFailedWriteKeepsPrevious: a writer that fails after
// writing part of its output returns its error, leaves the file it would
// have replaced byte-identical and leaves no temp file behind; a writer
// that succeeds replaces the file whole.
func TestWriteFileAtomicFailedWriteKeepsPrevious(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "shard-0000.cssi")
	previous := bytes.Repeat([]byte("previous contents "), 1000)
	if err := writeFileAtomic(path, func(f *os.File) error { _, err := f.Write(previous); return err }); err != nil {
		t.Fatal(err)
	}
	failed := errors.New("disk full")
	err := writeFileAtomic(path, func(f *os.File) error {
		if _, err := f.Write([]byte("partial new contents")); err != nil {
			return err
		}
		return failed
	})
	if !errors.Is(err, failed) {
		t.Fatalf("failed writer: err = %v, want %v", err, failed)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, previous) {
		t.Fatalf("after a failed write the file holds %d bytes (err %v), want the previous %d", len(got), err, len(previous))
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp-*")); len(tmps) != 0 {
		t.Fatalf("temp files left behind: %v", tmps)
	}
	next := []byte("next contents")
	if err := writeFileAtomic(path, func(f *os.File) error { _, err := f.Write(next); return err }); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, next) {
		t.Fatalf("after a good write the file holds %q, want %q", got, next)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("directory holds %d entries, want the one file", len(entries))
	}
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
				if got := mustDo(s, SearchRequest{Query: q, K: 5, Lambda: 0.5}); len(got) != 5 {
					t.Errorf("search returned %d", len(got))
					return
				}
				mustDo(s, SearchRequest{Query: q, K: 5, Lambda: 0.5, Approx: true})
				r := 0.05
				mustDo(s, SearchRequest{Query: q, K: 10, Lambda: 0.5, Radius: &r})
				mustDo(s, SearchRequest{Query: q, K: 3, Window: &Window{LoX: 0, LoY: 0, HiX: 1, HiY: 1}})
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
// every insert is one unanchored row on the shard that owns it while the
// write overlay buffers it, and a compaction or a rebuild anchors them
// all, with exact answers throughout.
func TestShardedUnanchoredRows(t *testing.T) {
	ds := testDataset(t, 900)
	s := mustBuildSharded(t, ds, 3, Options{Seed: 5})
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
	check("buffered", live, 14)
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	check("compacted", live, 0)
	if err := s.Rebuild(); err != nil {
		t.Fatal(err)
	}
	check("rebuilt", live, 0)
}

// TestShardedLateWritesFoldedByCompact: writes that arrive while a
// background fold runs are replayed into the fold's write overlay, so
// the explicit Compact that follows folds and anchors them. Two shards
// of 10k rows at threshold 4 take 400 inserts back to back, each write
// starting or meeting a fold; afterwards no shard buffers an op or holds
// an unanchored row, the invariants hold and exact answers equal the
// linear scan's.
func TestShardedLateWritesFoldedByCompact(t *testing.T) {
	ds := testDataset(t, 20_000)
	s := mustBuildSharded(t, ds, 2, Options{Seed: 9, DeltaCompactThreshold: 4})
	space, err := metric.NewSpace(ds)
	if err != nil {
		t.Fatal(err)
	}
	live := &Dataset{Dim: ds.Dim, Objects: append([]Object(nil), ds.Objects...)}
	for i := 0; i < 400; i++ {
		o := ds.Objects[(i*37+5)%ds.Len()]
		o.ID = uint32(900_000 + i)
		o.Y = 1 - o.Y
		if err := s.Insert(o); err != nil {
			t.Fatal(err)
		}
		live.Objects = append(live.Objects, o)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	for _, st := range s.ShardStats() {
		if st.DeltaOps != 0 || st.Unanchored != 0 {
			t.Fatalf("shard %d: %d overlay ops and %d unanchored rows after Compact", st.Shard, st.DeltaOps, st.Unanchored)
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	oracle := scan.New(live, space)
	n := live.Len()
	for qi := 0; qi < 3; qi++ {
		q := live.Objects[(qi*7919+400)%n]
		for _, lambda := range []float64{0, 0.5, 1} {
			for _, k := range []int{1, 10, n + 5} {
				equalResults(t, fmt.Sprintf("q%d λ=%v k=%d", qi, lambda, k),
					oracle.Search(&q, k, lambda, nil), mustDo(s, SearchRequest{Query: &q, K: k, Lambda: lambda}))
			}
		}
	}
}

// TestShardedCompactIsAFoldPoint: a write that crosses the threshold
// starts a background fold of a shard large enough that the fold takes
// milliseconds, and a Compact called at once — with one more write
// logged beside the fold — returns only with no shard buffering an
// overlay op, the late write replayed, and exact answers.
func TestShardedCompactIsAFoldPoint(t *testing.T) {
	ds := testDataset(t, 24_000)
	space, err := metric.NewSpace(ds)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 2} {
		s := mustBuildSharded(t, ds, p, Options{Seed: 6, DeltaCompactThreshold: 8})
		live := &Dataset{Dim: ds.Dim, Objects: append([]Object(nil), ds.Objects...)}
		// Deletes, each on its own publication, until a shard crosses its
		// threshold; then one insert beside the fold that starts.
		for i := 0; i < 8*p; i++ {
			if err := s.Delete(ds.Objects[i].ID); err != nil {
				t.Fatal(err)
			}
		}
		late := ds.Objects[100]
		late.ID, late.X = 900_000, late.X*0.98
		if err := s.Insert(late); err != nil {
			t.Fatal(err)
		}
		live.Objects = append(live.Objects[8*p:], late)
		if err := s.Compact(); err != nil {
			t.Fatal(err)
		}
		for _, st := range s.ShardStats() {
			if st.DeltaOps != 0 {
				t.Fatalf("P=%d: shard %d holds %d overlay ops after Compact", p, st.Shard, st.DeltaOps)
			}
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		oracle := scan.New(live, space)
		for _, lambda := range []float64{0, 0.5, 1} {
			q := ds.Objects[4321]
			equalResults(t, fmt.Sprintf("P=%d λ=%v", p, lambda), oracle.Search(&q, 10, lambda, nil), mustDo(s, SearchRequest{Query: &q, K: 10, Lambda: lambda}))
		}
	}
}

// doStriped is s.DoContext with the read dealt onto w stripes instead
// of the host's GOMAXPROCS: the stripe count is a field of the view the
// pipeline serves from, never a request option.
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

// TestStripedChainEquivalence pins the one-heap read of a sharded index:
// on one stripe and on two (the caller and the standing helper, dealt
// whole snapshots, splitting the last one's frontier) the answer equals
// the flat index's and the linear scan's rank by rank — IDs, distances,
// and the ID tie-break where equal objects sit on different shards —
// over freshly built shards, over write overlays with tombstones, and
// after compaction, for the k-NN, range and window shapes. Counted reads
// repeat their counters exactly and equal on both stripe counts; a
// traced read keeps both stripes, and its spans charge every cluster
// once however the stripes shared the shards (see checkStripedTrace);
// observing the read changes neither the answer nor the counters. Where
// hooks exist, the helper is forced to take the first snapshot, the last
// one, or none (the offer withdrawn). A budget cut makes the answer a
// partial but admissible prefix, and all of it holds while ApplyBatch
// publishes concurrently.
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
						all := oracle.Search(q, len(live), lambda, nil)
						r := all[7].Dist
						win := Window{LoX: q.X - 0.2, LoY: q.Y - 0.2, HiX: q.X + 0.2, HiY: q.Y + 0.2}
						for _, k := range []int{1, tieK, len(live) + 5} {
							ctx := fmt.Sprintf("%s q%d λ=%v k=%d", stage, qi, lambda, k)
							want := all[:min(k, len(all))]
							equalResults(t, ctx+" flat vs scan", want, mustDo(flat, SearchRequest{Query: q, K: k, Lambda: lambda}))
							var inRange, inWindow []Result
							for _, res := range all {
								o := live[res.ID]
								if len(inRange) < k && res.Dist <= r {
									inRange = append(inRange, res)
								}
								if len(inWindow) < k && o.X >= win.LoX && o.X <= win.HiX && o.Y >= win.LoY && o.Y <= win.HiY {
									inWindow = append(inWindow, res)
								}
							}
							checkStripes(t, ctx, s, flat, live, SearchRequest{Query: q, K: k, Lambda: lambda}, want)
							checkStripes(t, ctx+" range", s, flat, live, SearchRequest{Query: q, K: k, Lambda: lambda, Radius: &r}, inRange)
							checkStripes(t, ctx+" window", s, flat, live, SearchRequest{Query: q, K: k, Lambda: lambda, Window: &win}, inWindow)
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
			// shards — and stripes — hold those differs with P.
			twin := live[mustDo(flat, SearchRequest{Query: tieQ, K: tieK, Lambda: 0.5})[tieK-3].ID]
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
			// too — the answers must not move, on either stripe count.
			if err := s.SetDeltaThreshold(8); err != nil {
				t.Fatal(err)
			}
			far := mustDo(flat, SearchRequest{Query: tieQ, K: len(live), Lambda: 0.5})[len(live)/2:]
			want := mustDo(flat, SearchRequest{Query: tieQ, K: tieK, Lambda: 0.5})
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
				for w := 1; w <= 2; w++ {
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

// snapshotSchedules are the helper schedules of a read over several
// snapshots that forceSnapshots forces, and helperWithdrawn.
var snapshotSchedules = []stripeSchedule{helperFirstSnapshot, helperLastSnapshot, helperWithdrawn}

// forceSnapshots installs a hook forcing s on the next striped read over
// n snapshots and returns its log; ok is false when hooks are not
// compiled in. helperFirstSnapshot holds the caller until the helper has
// claimed a snapshot, so the helper takes the first; helperLastSnapshot
// holds the helper until the caller has claimed every snapshot but the
// last, and the caller until the helper has claimed that one, so the
// caller joins the last snapshot's walk.
func forceSnapshots(t *testing.T, s stripeSchedule, n int) (*stripeLog, bool) {
	t.Helper()
	if s == helperWithdrawn {
		return forceStripes(t, s, nil, nil)
	}
	if !core.SetStripeHook(nil) {
		return nil, false
	}
	t.Cleanup(func() { core.SetStripeHook(nil) })
	log := new(stripeLog)
	claimed, dealt := make(chan struct{}), make(chan struct{})
	var once sync.Once
	claims := 0 // the caller's snapshot claims, touched by the caller only
	core.SetStripeHook(func(p core.StripePoint) {
		switch p {
		case core.StripeOffered:
			log.offered.Add(1)
			if s == helperFirstSnapshot {
				awaitPoint(t, claimed, "the helper's first snapshot")
			}
		case core.StripeHelperStarted:
			log.started.Add(1)
			if s == helperLastSnapshot {
				awaitPoint(t, dealt, "the caller's claims of all but the last snapshot")
			}
		case core.StripeHelperSnapshot:
			once.Do(func() { close(claimed) })
		case core.StripeCallerSnapshot:
			if claims++; s == helperLastSnapshot && claims == n {
				close(dealt)
				awaitPoint(t, claimed, "the helper's claim of the last snapshot")
			}
		}
	})
	return log, true
}

// checkStripes runs one exact request on s on one stripe and on two:
// counted, twice per stripe count; unobserved and traced under the
// host's schedule and, where hooks exist, under each forced helper
// schedule; and under a fired budget.
func checkStripes(t *testing.T, ctx string, s *ShardedIndex, flat *Index, live map[uint32]Object, req SearchRequest, want []Result) {
	t.Helper()
	var counts [2]Stats
	for w := 1; w <= 2; w++ {
		wctx := fmt.Sprintf("%s w=%d", ctx, w)
		var again Stats
		for i, st := range []*Stats{&counts[w-1], &again} {
			counted := req
			counted.Stats = st
			got, err := doStriped(s, w, context.Background(), counted)
			if err != nil {
				t.Fatal(err)
			}
			equalResults(t, fmt.Sprintf("%s counted #%d", wctx, i), want, got)
		}
		if again != counts[w-1] {
			t.Fatalf("%s: stats differ between two runs: %+v vs %+v", wctx, counts[w-1], again)
		}

		for _, traced := range []bool{false, true} {
			var tr SearchTrace
			r := req
			if traced {
				r.Trace = &tr
			}
			got, err := doStriped(s, w, context.Background(), r)
			if err != nil {
				t.Fatal(err)
			}
			rctx := fmt.Sprintf("%s traced=%v", wctx, traced)
			equalResults(t, rctx, want, got)
			if traced {
				checkStripedTrace(t, rctx, s, flat, live, req, want, &tr, again)
			}
			if w == 1 {
				continue
			}
			for _, sched := range snapshotSchedules {
				log, ok := forceSnapshots(t, sched, s.NumShards())
				if !ok {
					break
				}
				tr = SearchTrace{}
				got, err := doStriped(s, w, context.Background(), r)
				core.SetStripeHook(nil)
				if err != nil {
					t.Fatal(err)
				}
				sctx := fmt.Sprintf("%s %v", rctx, sched)
				log.check(t, sctx, sched)
				equalResults(t, sctx, want, got)
				if traced {
					if tr.Parallel != (sched != helperWithdrawn) {
						t.Fatalf("%s: trace parallel=%v", sctx, tr.Parallel)
					}
					checkStripedTrace(t, sctx, s, flat, live, req, want, &tr, again)
				}
			}
		}

		var es ExplainStats
		var observed Stats
		var tr SearchTrace
		observedReq := req
		observedReq.Stats, observedReq.Explain, observedReq.Trace = &observed, &es, &tr
		got, err := doStriped(s, w, context.Background(), observedReq)
		if err != nil {
			t.Fatal(err)
		}
		equalResults(t, wctx+" observed", want, got)
		if observed != again || es.Stats != again || tr.Total.Stats != again || tr.Parallel {
			t.Fatalf("%s: observed stats %+v / explain %+v / trace %+v (parallel %v), counted %+v", wctx, observed, es.Stats, tr.Total.Stats, tr.Parallel, again)
		}

		// The budget fires at the first poll of every snapshot: whatever
		// comes back is flagged partial and is the exact top-k of what was
		// examined — true distances of live objects, in canonical order,
		// none ranked better than the complete answer ranks it.
		var meta ResponseMeta
		fired := firedCtx{context.Background(), make(chan struct{})}
		close(fired.done)
		cutReq := req
		cutReq.Meta = &meta
		cut, err := doStriped(s, w, fired, cutReq)
		if err != nil {
			t.Fatal(err)
		}
		if !meta.Partial || len(cut) > len(want) {
			t.Fatalf("%s: fired budget: partial=%v, %d results of %d", wctx, meta.Partial, len(cut), len(want))
		}
		for i, r := range cut {
			o, ok := live[r.ID]
			if !ok || r.Dist != flat.space.Distance(nil, req.Lambda, req.Query, &o) {
				t.Fatalf("%s: fired budget: result %d = %+v is not a live object at its true distance", wctx, i, r)
			}
			if i > 0 && !lessResult(cut[i-1], r) {
				t.Fatalf("%s: fired budget: results out of canonical order at %d", wctx, i)
			}
			if r.Dist < want[i].Dist {
				t.Fatalf("%s: fired budget: rank %d at %v beats the complete answer's %v", wctx, i, r.Dist, want[i].Dist)
			}
		}
	}
	if counts[0] != counts[1] {
		t.Fatalf("%s: counted stats on one stripe %+v, on two %+v", ctx, counts[0], counts[1])
	}
}

// checkStripedTrace checks the trace tr of req's read, whose answer was
// want and whose counted read counted: one span per shard, each
// charging every base cluster of its shard as examined or pruned, once
// (overlay groups are pruned beside them, so a shard with an overlay is
// held to its cluster count alone). A
// read on one stripe has the counted read's counters, and span i the
// k-th distance of the answer over shards 0..i; one the helper shared
// is marked Parallel, and its last span holds the answer's k-th
// distance.
func checkStripedTrace(t *testing.T, ctx string, s *ShardedIndex, flat *Index, live map[uint32]Object, req SearchRequest, want []Result, tr *SearchTrace, counted Stats) {
	t.Helper()
	if len(tr.Shards) != s.NumShards() {
		t.Fatalf("%s: trace has %d spans", ctx, len(tr.Shards))
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	v := s.view()
	for i := range tr.Shards {
		st := &tr.Shards[i].Stats
		n := int64(v.cores[i].NumClusters())
		if st.ClustersTotal != n || v.cores[i].DeltaLive() == 0 && st.ClustersExamined+st.ClustersPruned != n {
			t.Fatalf("%s: span %d: %d clusters, %d examined, %d pruned; the shard has %d", ctx, i, st.ClustersTotal, st.ClustersExamined, st.ClustersPruned, n)
		}
	}
	if tr.Parallel {
		var kth float64
		if len(want) > 0 {
			kth = want[len(want)-1].Dist
		}
		if got := tr.Shards[len(tr.Shards)-1].Stats.KthDistance; got != kth {
			t.Fatalf("%s: last span kthDistance %v, want %v", ctx, got, kth)
		}
		return
	}
	if tr.Total.Stats != counted {
		t.Fatalf("%s: trace total %+v, counted %+v", ctx, tr.Total.Stats, counted)
	}
	for i, sp := range tr.Shards {
		if kth := prefixKth(s, flat, live, req, i); sp.Stats.KthDistance != kth {
			t.Fatalf("%s: span %d kthDistance %v, want %v", ctx, i, sp.Stats.KthDistance, kth)
		}
	}
}

// prefixKth is the distance of the last result of req's exact answer
// over the objects of live that shards 0..last of s hold (0 for none).
func prefixKth(s *ShardedIndex, flat *Index, live map[uint32]Object, req SearchRequest, last int) float64 {
	var held []Result
	for id, o := range live {
		if s.ShardFor(id) > last {
			continue
		}
		if w := req.Window; w != nil && (o.X < w.LoX || o.X > w.HiX || o.Y < w.LoY || o.Y > w.HiY) {
			continue
		}
		r := Result{ID: id, Dist: flat.space.Distance(nil, req.Lambda, req.Query, &o)}
		if req.Radius == nil || r.Dist <= *req.Radius {
			held = append(held, r)
		}
	}
	slices.SortFunc(held, func(a, b Result) int {
		if lessResult(a, b) {
			return -1
		}
		return 1
	})
	if len(held) == 0 {
		return 0
	}
	return held[min(req.K, len(held))-1].Dist
}

// TestShardedReadAllocatesNothing pins the one-heap read's cost: after
// warm-up an unobserved exact Do on a four-shard index under
// GOMAXPROCS(2) — a read the standing helper may take a stripe of —
// allocates nothing, and a thousand of them leave the goroutine count
// where they found it.
func TestShardedReadAllocatesNothing(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	ds := testDataset(t, 2000)
	queries := ds.SampleQueries(16, 9)
	s := mustBuildSharded(t, ds, 4, Options{Seed: 29})
	buf := make([]Result, 0, 16)
	query := func(i int) {
		var err error
		if buf, err = s.Do(SearchRequest{Query: &queries[i%len(queries)], K: 10, Lambda: 0.5, Dst: buf[:0]}); err != nil {
			t.Fatal(err)
		}
	}
	for i := range queries { // warm-up: the helper, pooled scratches, the epoch
		query(i)
	}
	if !raceEnabled {
		// AllocsPerRun can see a stray allocation if GC empties the
		// sync.Pool mid-measure, so pass if any attempt is clean.
		got := 1.0
		for attempt := 0; attempt < 3 && got != 0; attempt++ {
			i := 0
			got = testing.AllocsPerRun(len(queries)*4, func() { query(i); i++ })
		}
		if got != 0 {
			t.Errorf("%v allocs per steady-state read, want 0", got)
		}
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 1000; i++ {
		query(i)
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Fatalf("%d goroutines after 1,000 reads, %d before", after, before)
	}
}

// TestShardedCountedReadsOneStripe pins the counted-read rule over
// several snapshots: a Stats or an Explain read of a P = 4 index returns
// the same counters under GOMAXPROCS 1 and 2, equal to one stripe's walk
// of the snapshots in order (core.SearchShardsInto with nothing
// striped), and the same answer as an unobserved read; where hooks
// exist, neither is offered to the helper.
func TestShardedCountedReadsOneStripe(t *testing.T) {
	ds := testDataset(t, 1200)
	s := mustBuildSharded(t, ds, 4, Options{Seed: 31})
	cores := s.view().cores
	for qi, q := range ds.SampleQueries(8, 37) {
		var want Stats
		wantRes := core.SearchShardsInto(nil, cores, &q, 10, 0.5, core.SearchOptions{}, nil, &want)
		for _, procs := range []int{1, 2} {
			prev := runtime.GOMAXPROCS(procs)
			equalResults(t, fmt.Sprintf("q%d GOMAXPROCS=%d unobserved", qi, procs), wantRes, mustDo(s, SearchRequest{Query: &q, K: 10, Lambda: 0.5}))
			log, hooked := forceStripes(t, helperFree, nil, nil)
			var st Stats
			var es ExplainStats
			for _, req := range []SearchRequest{
				{Query: &q, K: 10, Lambda: 0.5, Stats: &st},
				{Query: &q, K: 10, Lambda: 0.5, Explain: &es},
			} {
				equalResults(t, fmt.Sprintf("q%d GOMAXPROCS=%d", qi, procs), wantRes, mustDo(s, req))
			}
			core.SetStripeHook(nil)
			runtime.GOMAXPROCS(prev)
			if st != want || es.Stats != want {
				t.Fatalf("q%d GOMAXPROCS=%d: Stats %+v / Explain %+v, one stripe in order %+v", qi, procs, st, es.Stats, want)
			}
			if hooked && log.offered.Load() != 0 {
				t.Fatalf("q%d GOMAXPROCS=%d: %d counted reads offered a stripe", qi, procs, log.offered.Load())
			}
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

// Zero cluster counts are derived per shard, from the shard's own
// objects, as a flat build over those objects derives them — and again
// when the shard rebuilds; explicit counts apply to every shard
// verbatim.
func TestBuildShardedDerivesPerShardClusterCounts(t *testing.T) {
	ds := testDataset(t, 2400)
	flat := mustBuild(t, ds, Options{Seed: 5})
	s := mustBuildSharded(t, ds, 4, Options{Seed: 5})
	for i, cell := range s.shards {
		c := cell.cur.Load().core
		part := &Dataset{Dim: ds.Dim}
		c.ForEachLive(func(o *Object) { part.Objects = append(part.Objects, *o) })
		want := mustBuild(t, part, Options{Seed: 5}).core.Config()
		if got := c.Config(); got.Ks != want.Ks || got.Kt != want.Kt || got.Ks >= flat.core.Config().Ks {
			t.Fatalf("shard %d (%d objects): %d/%d clusters, want %d/%d (flat index: %d)",
				i, c.Len(), got.Ks, got.Kt, want.Ks, want.Kt, flat.core.Config().Ks)
		}
	}
	explicit := mustBuildSharded(t, ds, 4, Options{Seed: 5, Ks: 9, Kt: 7})
	if err := explicit.Rebuild(); err != nil {
		t.Fatal(err)
	}
	for i, cell := range explicit.shards {
		if got := cell.cur.Load().core.Config(); got.Ks != 9 || got.Kt != 7 {
			t.Fatalf("shard %d: %d/%d clusters after rebuild, want 9/7", i, got.Ks, got.Kt)
		}
	}
}

// TestShardedAnchorSetIdentity pins which operations keep BuildSharded's
// one anchor set and that a sharded read stays exact whichever shards
// share it: a read fills the query's anchor distances once, for shard
// 0's set, and a shard over another set computes its own. Writes and
// compaction keep the set, rebuilding shard 0 gives it a set of its own
// while the others keep the shared one, and SaveDir → LoadSharded gives
// every shard its own. At each step the answer equals the linear scan's
// on every stripe count, unobserved (one shared bound) and counted.
func TestShardedAnchorSetIdentity(t *testing.T) {
	const p = 4
	ds := testDataset(t, 1200)
	s := mustBuildSharded(t, ds, p, Options{Seed: 67})
	live := make(map[uint32]Object, ds.Len())
	for _, o := range ds.Objects {
		live[o.ID] = o
	}
	queries := ds.SampleQueries(6, 71)
	sets := func() []*core.Anchors {
		out := make([]*core.Anchors, p)
		for i, cell := range s.shards {
			out[i] = cell.cur.Load().core.AnchorSet()
		}
		return out
	}
	// check asserts that shards i and j share a set exactly when group
	// gives them the same label, then the answers.
	check := func(stage string, group [p]int) {
		t.Helper()
		got := sets()
		for i := range got {
			for j := range got {
				if want := group[i] == group[j]; (got[i] == got[j]) != want {
					t.Fatalf("%s: shards %d and %d share an anchor set: %v, want %v", stage, i, j, !want, want)
				}
			}
		}
		objs := make([]Object, 0, len(live))
		for _, o := range live {
			objs = append(objs, o)
		}
		oracle := scan.New(&Dataset{Objects: objs, Dim: ds.Dim}, snapshot(s).space)
		for qi := range queries {
			q := &queries[qi]
			for _, lambda := range []float64{0.2, 0.5, 0.8} {
				want := oracle.Search(q, 10, lambda, nil)
				for w := 1; w <= p; w++ {
					ctx := fmt.Sprintf("%s q%d λ=%v w=%d", stage, qi, lambda, w)
					var st Stats
					for _, req := range []SearchRequest{
						{Query: q, K: 10, Lambda: lambda},
						{Query: q, K: 10, Lambda: lambda, Stats: &st},
					} {
						got, err := doStriped(s, w, context.Background(), req)
						if err != nil {
							t.Fatal(err)
						}
						equalResults(t, ctx, want, got)
					}
				}
			}
		}
	}
	one := [p]int{}
	check("built", one)

	for _, op := range overlayOps(ds, 40) {
		if err := s.ApplyBatch([]Op{op}); err != nil {
			t.Fatal(err)
		}
		if op.Kind == OpDelete {
			delete(live, op.ID)
		} else {
			live[op.Object.ID] = op.Object
		}
	}
	check("overlay", one)
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	check("compacted", one)

	if err := s.shards[0].rebuild(); err != nil {
		t.Fatal(err)
	}
	check("shard 0 rebuilt", [p]int{1, 0, 0, 0})

	dir := t.TempDir()
	if err := s.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSharded(dir)
	if err != nil {
		t.Fatal(err)
	}
	s = loaded
	check("loaded", [p]int{0, 1, 2, 3})
}

// An object tying the k-th distance at its cluster's bound is still
// offered, and wins or loses on its ID. Objects sharing one point but not
// a vector land in different clusters, and a λ = 1 query on that point
// ties them all at distance 0 — the bound of every cluster holding one.
// The answer is the linear scan's, smallest IDs first, on a bare index
// and on one and four shards.
func TestExactTieAtSharedPoint(t *testing.T) {
	base := testDataset(t, 700)
	p := base.Objects[17]
	objs := slices.Clone(base.Objects)
	for i := 0; i < 12; i++ {
		o := p
		o.ID, o.Vec = uint32(700_000+(i*5)%12), base.Objects[100+41*i].Vec
		objs = append(objs, o)
	}
	ds := &Dataset{Objects: objs, Dim: base.Dim}
	bare := mustBuild(t, ds, Options{Seed: 37})
	oracle := scan.New(ds, bare.space)
	targets := []struct {
		name string
		idx  doer
	}{
		{"bare", bare},
		{"P=1", mustBuildSharded(t, ds, 1, Options{Seed: 37})},
		{"P=4", mustBuildSharded(t, ds, 4, Options{Seed: 37})},
	}
	for _, tg := range targets {
		for _, k := range []int{1, 3, 5, 13} {
			want := oracle.Search(&p, k, 1, nil)
			if want[len(want)-1].Dist != 0 {
				t.Fatalf("k=%d: the scan's answer %v is not all ties", k, want)
			}
			equalResults(t, fmt.Sprintf("%s k=%d", tg.name, k), want, mustDo(tg.idx, SearchRequest{Query: &p, K: k, Lambda: 1}))
		}
	}
}
