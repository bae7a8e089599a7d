package cssi

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"
)

// snapshot is the snapshot a one-shard index currently publishes.
func snapshot(s *ShardedIndex) *Index { return s.shards[0].cur.Load() }

func TestConcurrentIndexMixedWorkload(t *testing.T) {
	ds := testDataset(t, 600)
	c := ShardedFrom(mustBuild(t, ds, Options{Seed: 31}))
	var wg sync.WaitGroup
	// Readers.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				q := ds.Objects[(g*41+i*7)%ds.Len()]
				if got := mustDo(c, SearchRequest{Query: &q, K: 5, Lambda: 0.5}); len(got) != 5 {
					t.Errorf("search returned %d", len(got))
					return
				}
				mustDo(c, SearchRequest{Query: &q, K: 5, Lambda: 0.5, Approx: true})
				r := 0.05
				mustDo(c, SearchRequest{Query: &q, K: 10, Lambda: 0.5, Radius: &r})
				mustDo(c, SearchRequest{Query: &q, K: 3, Window: &Window{LoX: 0, LoY: 0, HiX: 1, HiY: 1}})
				c.Len()
			}
		}(g)
	}
	// Writers.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				o := ds.Objects[0]
				o.ID = uint32(200000 + g*1000 + i)
				if err := c.Insert(o); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
				if i%2 == 0 {
					if err := c.Delete(o.ID); err != nil {
						t.Errorf("delete: %v", err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if err := c.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if snapshot(c).Len() != c.Len() {
		t.Fatal("snapshot disagrees with wrapper")
	}
}

// Batched entry points must validate their inputs before any worker
// spins up: an empty batch is answered inline, and a non-positive k is
// an error rather than k silently-empty result sets (or a worker panic).
func TestBatchSearchInputValidation(t *testing.T) {
	ds := testDataset(t, 200)
	c := ShardedFrom(mustBuild(t, ds, Options{Seed: 5}))
	queries := ds.SampleQueries(4, 2)

	if got, err := c.DoBatch(BatchSearchRequest{Queries: nil, K: 5, Lambda: 0.5}); err != nil || got == nil || len(got) != 0 {
		t.Fatalf("empty batch: got %v, err %v", got, err)
	}
	if got, err := c.DoBatch(BatchSearchRequest{Queries: []Object{}, K: 5, Lambda: 0.5, Approx: true, Parallelism: 2}); err != nil || got == nil || len(got) != 0 {
		t.Fatalf("empty approx batch: got %v, err %v", got, err)
	}
	for _, k := range []int{0, -3} {
		if _, err := c.DoBatch(BatchSearchRequest{Queries: queries, K: k, Lambda: 0.5}); !errors.Is(err, ErrInvalidK) {
			t.Fatalf("k=%d: err %v, want ErrInvalidK", k, err)
		}
	}
	// Valid input still works.
	got, err := c.DoBatch(BatchSearchRequest{Queries: queries, K: 3, Lambda: 0.5})
	if err != nil || len(got) != len(queries) {
		t.Fatalf("valid batch: %d sets, err %v", len(got), err)
	}
}

func TestConcurrentObjectCopy(t *testing.T) {
	ds := testDataset(t, 100)
	c := ShardedFrom(mustBuild(t, ds, Options{Seed: 32}))
	o, ok := c.Object(ds.Objects[3].ID)
	if !ok || o.ID != ds.Objects[3].ID {
		t.Fatal("Object lookup failed")
	}
	if _, ok := c.Object(987654); ok {
		t.Fatal("unknown object resolved")
	}
	// Update through the wrapper and re-read.
	o.X = 0.777
	if err := c.Update(o); err != nil {
		t.Fatal(err)
	}
	got, _ := c.Object(o.ID)
	if got.X != 0.777 {
		t.Fatal("update not visible")
	}
}

// mustDoBatch is the exact DoBatch of queries on a flat index.
func mustDoBatch(t *testing.T, idx *Index, queries []Object, k int, lambda float64) [][]Result {
	t.Helper()
	out, err := idx.DoBatch(BatchSearchRequest{Queries: queries, K: k, Lambda: lambda})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func mustBuild(t *testing.T, ds *Dataset, opts Options) *Index {
	t.Helper()
	idx, err := Build(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

func TestTune(t *testing.T) {
	ds := testDataset(t, 1500)
	results, best, err := Tune(ds, TuneConfig{
		MValues: []int{1, 2},
		FValues: []float64{0.3},
		K:       10,
		Queries: 10,
		Seed:    5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results", len(results))
	}
	if best < 0 || best >= len(results) {
		t.Fatalf("best index %d out of range", best)
	}
	for _, r := range results {
		if r.BuildTime <= 0 || r.ExactMicros <= 0 {
			t.Fatalf("missing measurements: %+v", r)
		}
		if r.Error < 0 || r.Error > 1 {
			t.Fatalf("error out of range: %+v", r)
		}
	}
	// m=2 should be within the default error budget on this data.
	if results[best].Error > 0.05 {
		t.Fatalf("recommended config has error %v", results[best].Error)
	}
}

func TestTuneEmptyDataset(t *testing.T) {
	if _, _, err := Tune(nil, TuneConfig{}); err == nil {
		t.Fatal("expected error")
	}
}

func TestPickBestFallsBackToLowestError(t *testing.T) {
	rs := []TuneResult{
		{M: 1, Error: 0.4, ApproxMicros: 10},
		{M: 2, Error: 0.2, ApproxMicros: 50},
	}
	if got := pickBest(rs, 0.01); got != 1 {
		t.Fatalf("fallback picked %d", got)
	}
	rs[0].Error = 0.005
	if got := pickBest(rs, 0.01); got != 0 {
		t.Fatalf("budgeted pick %d", got)
	}
}

// Batched readers racing maintenance writers: DoBatch fans its
// queries over worker goroutines while Insert/Delete/Update/
// Rebuild mutate the index (and its vector arenas) under the write
// lock. Run with -race; the dataset is small so the stress stays cheap.
func TestConcurrentBatchStress(t *testing.T) {
	ds := testDataset(t, 400)
	c := ShardedFrom(mustBuild(t, ds, Options{Seed: 33}))
	queries := ds.SampleQueries(24, 17)
	var wg sync.WaitGroup
	// Batch readers, exact and approximate, with varying worker counts.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				if g%2 == 0 {
					got, err := c.DoBatch(BatchSearchRequest{Queries: queries, K: 5, Lambda: 0.5})
					if err != nil {
						t.Errorf("batch: %v", err)
						return
					}
					if len(got) != len(queries) {
						t.Errorf("batch returned %d sets", len(got))
						return
					}
				} else {
					var st Stats
					if _, err := c.DoBatch(BatchSearchRequest{Queries: queries, K: 5, Lambda: 0.5, Approx: true, Parallelism: 1 + i%4, Stats: &st}); err != nil {
						t.Errorf("batch: %v", err)
						return
					}
					if st.VisitedObjects == 0 {
						t.Error("batch stats not accumulated")
						return
					}
				}
			}
		}(g)
	}
	// Single-query readers keep the scratch pool contended.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			q := ds.Objects[(i*13)%ds.Len()]
			mustDo(c, SearchRequest{Query: &q, K: 3, Lambda: 0.5})
		}
	}()
	// Writers: inserts force arena regrowth, deletes shrink clusters,
	// periodic Rebuild swaps the whole index value.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				o := ds.Objects[(g*7+i)%ds.Len()]
				o.ID = uint32(300000 + g*1000 + i)
				if err := c.Insert(o); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
				switch i % 3 {
				case 0:
					if err := c.Delete(o.ID); err != nil {
						t.Errorf("delete: %v", err)
						return
					}
				case 1:
					o.X = 1 - o.X
					if err := c.Update(o); err != nil {
						t.Errorf("update: %v", err)
						return
					}
				case 2:
					if err := c.Rebuild(); err != nil {
						t.Errorf("rebuild: %v", err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	// The index must still be coherent: a batch against the final state
	// agrees with sequential search.
	final, err := c.DoBatch(BatchSearchRequest{Queries: queries, K: 5, Lambda: 0.5})
	if err != nil {
		t.Fatalf("final batch: %v", err)
	}
	for qi := range queries {
		seq := mustDo(c, SearchRequest{Query: &queries[qi], K: 5, Lambda: 0.5})
		for i := range seq {
			if final[qi][i].Dist != seq[i].Dist {
				t.Fatalf("post-stress query %d result %d differs", qi, i)
			}
		}
	}
}

// pinnedState is what one pinned shard snapshot answers: its Len, exact
// and CSSIA answers with their counted-read Stats, and its Object
// lookups.
type pinnedState struct {
	n                 int
	exact, approx     [][]Result
	exactSt, approxSt []Stats
	objs              map[uint32]*Object
	objIDs            []uint32
}

func pinState(x *Index, queries []Object, ids []uint32) pinnedState {
	ps := pinnedState{n: x.Len(), objs: make(map[uint32]*Object), objIDs: ids}
	for qi := range queries {
		for _, lambda := range []float64{0.3, 0.7} {
			for _, approx := range []bool{false, true} {
				var st Stats
				res := mustDo(x, SearchRequest{Query: &queries[qi], K: 8, Lambda: lambda, Approx: approx, Stats: &st})
				if approx {
					ps.approx, ps.approxSt = append(ps.approx, res), append(ps.approxSt, st)
				} else {
					ps.exact, ps.exactSt = append(ps.exact, res), append(ps.exactSt, st)
				}
			}
		}
	}
	for _, id := range ids {
		if o, ok := x.Object(id); ok {
			c := *o
			c.Vec = slices.Clone(o.Vec)
			ps.objs[id] = &c
		}
	}
	return ps
}

// diff returns how x's answers differ from the pinned ones, or "".
func (ps pinnedState) diff(x *Index, queries []Object) string {
	got := pinState(x, queries, ps.objIDs)
	switch {
	case got.n != ps.n:
		return fmt.Sprintf("Len %d, pinned %d", got.n, ps.n)
	case !slices.EqualFunc(got.exact, ps.exact, slices.Equal) || !slices.Equal(got.exactSt, ps.exactSt):
		return "exact answers or their Stats"
	case !slices.EqualFunc(got.approx, ps.approx, slices.Equal) || !slices.Equal(got.approxSt, ps.approxSt):
		return "CSSIA answers or their Stats"
	}
	for _, id := range ps.objIDs {
		w, g := ps.objs[id], got.objs[id]
		if (w == nil) != (g == nil) || (w != nil && (w.X != g.X || w.Y != g.Y || w.Text != g.Text || !slices.Equal(w.Vec, g.Vec))) {
			return fmt.Sprintf("Object(%d): %v, pinned %v", id, g, w)
		}
	}
	return ""
}

// A snapshot taken before a write must keep answering from the old
// state no matter how many writes publish after it — the pinning
// guarantee batched readers rely on, and what the stamped overlay must
// keep: every snapshot of a fold lineage shares the overlay its writer
// goes on writing in place. On one shard and on four, each shard's
// snapshot is pinned over an overlay holding inserts, tombstones and
// dead slots; then, under concurrent readers of the pins, the writer
// updates base and overlay rows, deletes both, widens groups, fails a
// batch midway and triggers background folds. The pins' Len, exact and
// CSSIA answers, their counted-read Stats and their Object lookups never
// move, and the pins stay coherent (CheckInvariants).
func TestOverlaySnapshotPinsState(t *testing.T) {
	ds := testDataset(t, 800)
	base := ds.Prefix(600)
	queries := base.SampleQueries(4, 3)
	fresh := func(i int) Object {
		o := ds.Objects[600+i%200]
		o.ID = uint32(400000 + i)
		return o
	}
	moved := func(id uint32, i int) Object {
		o := ds.Objects[(i*37+11)%800]
		o.ID, o.X = id, 1-o.X
		return o
	}
	for _, p := range []int{1, 4} {
		t.Run(fmt.Sprintf("P=%d", p), func(t *testing.T) {
			c := mustBuildSharded(t, base, p, Options{Seed: 41, DeltaCompactThreshold: 1 << 20})
			must := func(err error) {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
			}
			// The pinned overlay: inserts, base deletes and updates, an
			// overlay update and an overlay delete.
			for i := 0; i < 60; i++ {
				must(c.Insert(fresh(i)))
			}
			for i := 0; i < 40; i++ {
				if id := base.Objects[i].ID; i < 20 {
					must(c.Delete(id))
				} else {
					must(c.Update(moved(id, i)))
				}
			}
			for i := 0; i < 20; i++ {
				if id := fresh(i).ID; i < 10 {
					must(c.Update(moved(id, i)))
				} else {
					must(c.Delete(id))
				}
			}
			pins := make([]*Index, p)
			states := make([]pinnedState, p)
			for si := range pins {
				pins[si] = c.shards[si].cur.Load()
				var ids []uint32
				for i := 0; i < 120; i++ {
					for _, id := range []uint32{base.Objects[i].ID, fresh(i).ID} {
						if c.ShardFor(id) == si {
							ids = append(ids, id)
						}
					}
				}
				states[si] = pinState(pins[si], queries, ids)
			}
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for g := 0; g < 2; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						for si := range pins {
							select {
							case <-stop:
								return
							default:
							}
							if d := states[si].diff(pins[si], queries); d != "" {
								t.Errorf("pinned shard %d moved: %s", si, d)
								return
							}
						}
					}
				}()
			}
			// Updates of base and overlay rows, deletes of both, and inserts
			// that widen the pinned groups.
			for i := 40; i < 60; i++ {
				must(c.Update(moved(base.Objects[i].ID, i)))
				must(c.Delete(base.Objects[i+20].ID))
			}
			for i := 20; i < 40; i++ {
				must(c.Update(moved(fresh(i).ID, i)))
				must(c.Delete(fresh(i + 20).ID))
			}
			for i := 60; i < 100; i++ {
				must(c.Insert(moved(fresh(i).ID, i)))
			}
			// A batch per shard that fails after an insert, an update of
			// a base row and an update of an overlay row.
			for si := 0; si < p; si++ {
				var batch []Op
				for i := 100; len(batch) < 1; i++ {
					if o := fresh(i); c.ShardFor(o.ID) == si {
						batch = append(batch, Op{Kind: OpInsert, Object: o})
					}
				}
				for i := 100; len(batch) < 2; i++ {
					if id := base.Objects[i].ID; c.ShardFor(id) == si {
						batch = append(batch, Op{Kind: OpUpdate, Object: moved(id, i)})
					}
				}
				for i := 80; len(batch) < 3; i++ {
					if id := fresh(i).ID; c.ShardFor(id) == si {
						batch = append(batch, Op{Kind: OpUpdate, Object: moved(id, i)})
					}
				}
				unknown := uint32(900000)
				for c.ShardFor(unknown) != si {
					unknown++
				}
				n := c.Len()
				if err := c.ApplyBatch(append(batch, Op{Kind: OpDelete, ID: unknown})); err == nil {
					t.Fatalf("shard %d: a batch deleting an unknown ID succeeded", si)
				}
				if c.Len() != n {
					t.Fatalf("shard %d: the failed batch moved Len %d -> %d", si, n, c.Len())
				}
				must(c.ApplyBatch(batch))
			}
			// Background folds: every shard crosses a small threshold.
			must(c.SetDeltaThreshold(8))
			deadline := time.Now().Add(20 * time.Second)
			for i := 120; ; i++ {
				folded := true
				for _, sh := range c.shards {
					folded = folded && sh.compactions.Load() > 0
				}
				if folded || time.Now().After(deadline) {
					break
				}
				must(c.Insert(fresh(i)))
			}
			for si, sh := range c.shards {
				if sh.compactions.Load() == 0 {
					t.Fatalf("shard %d: no background fold", si)
				}
			}
			must(c.Compact())
			close(stop)
			wg.Wait()
			for si, pin := range pins {
				if d := states[si].diff(pin, queries); d != "" {
					t.Fatalf("pinned shard %d moved: %s", si, d)
				}
				if err := pin.CheckInvariants(); err != nil {
					t.Fatalf("pinned shard %d: %v", si, err)
				}
			}
			if err := c.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// ApplyBatch is all-or-nothing: one failing op anywhere in the batch
// means NO op of the batch becomes visible.
func TestApplyBatchAtomicity(t *testing.T) {
	ds := testDataset(t, 120)
	c := ShardedFrom(mustBuild(t, ds, Options{Seed: 42}))
	before := snapshot(c)

	o1, o2 := ds.Objects[0], ds.Objects[1]
	o1.ID, o2.ID = 610000, 610001
	ops := []Op{
		{Kind: OpInsert, Object: o1},
		{Kind: OpDelete, ID: 999999}, // not present -> fails
		{Kind: OpInsert, Object: o2},
	}
	if err := c.ApplyBatch(ops); err == nil {
		t.Fatal("expected batch failure")
	}
	if snapshot(c) != before {
		t.Fatal("failed batch published a snapshot")
	}
	if _, ok := c.Object(610000); ok {
		t.Fatal("op before the failure leaked out of the batch")
	}

	// The successful path publishes everything in ONE snapshot.
	good := []Op{
		{Kind: OpInsert, Object: o1},
		{Kind: OpInsert, Object: o2},
		{Kind: OpDelete, ID: ds.Objects[2].ID},
	}
	if err := c.ApplyBatch(good); err != nil {
		t.Fatal(err)
	}
	snap := snapshot(c)
	if snap.Len() != before.Len()+1 {
		t.Fatalf("Len = %d, want %d", snap.Len(), before.Len()+1)
	}
	if _, ok := c.Object(610000); !ok {
		t.Fatal("batched insert missing")
	}
	if _, ok := c.Object(ds.Objects[2].ID); ok {
		t.Fatal("batched delete not applied")
	}
	if err := c.ApplyBatch(nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	if snapshot(c) != snap {
		t.Fatal("empty batch published a snapshot")
	}
	if err := snap.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Writes landing while a background rebuild runs must be replayed onto
// the fresh index before it is published — no acknowledged write lost,
// no deleted object resurrected.
func TestRebuildInBackgroundReplay(t *testing.T) {
	ds := testDataset(t, 500)
	c := ShardedFrom(mustBuild(t, ds, Options{Seed: 43}))

	// Pre-rebuild mutations so the rebuild base differs from build time.
	for i := 0; i < 30; i++ {
		if err := c.Delete(ds.Objects[i].ID); err != nil {
			t.Fatal(err)
		}
	}
	done, err := c.RebuildInBackground()
	if err != nil {
		t.Fatal(err)
	}
	// Concurrent mutations: these are acknowledged against COW clones of
	// the old snapshot and logged for replay.
	var insertedIDs []uint32
	for i := 0; i < 25; i++ {
		o := ds.Objects[100+i]
		o.ID = uint32(620000 + i)
		if err := c.Insert(o); err != nil {
			t.Fatalf("mid-rebuild insert: %v", err)
		}
		insertedIDs = append(insertedIDs, o.ID)
	}
	for i := 30; i < 45; i++ {
		if err := c.Delete(ds.Objects[i].ID); err != nil {
			t.Fatalf("mid-rebuild delete: %v", err)
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	snap := snapshot(c)
	if snap.UpdatesSinceBuild() != 15+len(insertedIDs) {
		t.Fatalf("UpdatesSinceBuild = %d, want %d (exactly the replayed ops)",
			snap.UpdatesSinceBuild(), 15+len(insertedIDs))
	}
	for _, id := range insertedIDs {
		if _, ok := c.Object(id); !ok {
			t.Fatalf("mid-rebuild insert %d lost", id)
		}
	}
	for i := 0; i < 45; i++ {
		if _, ok := c.Object(ds.Objects[i].ID); ok {
			t.Fatalf("deleted object %d resurrected by rebuild", ds.Objects[i].ID)
		}
	}
	if want := 500 - 45 + len(insertedIDs); snap.Len() != want {
		t.Fatalf("Len = %d, want %d", snap.Len(), want)
	}
	if err := snap.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// One background reconstruction at a time: beside one in flight,
// RebuildInBackground fails fast with ErrRebuildInProgress and Rebuild
// waits for it, then runs (white box: the in-flight marker is pinned so
// both checks are deterministic).
func TestRebuildInProgressRejected(t *testing.T) {
	ds := testDataset(t, 80)
	c := ShardedFrom(mustBuild(t, ds, Options{Seed: 44}))
	cell := c.shards[0]
	aside := make(chan struct{})
	cell.mu.Lock()
	cell.aside = aside
	cell.mu.Unlock()
	if _, err := c.RebuildInBackground(); !errors.Is(err, ErrRebuildInProgress) {
		t.Fatalf("RebuildInBackground: %v", err)
	}
	rebuilt := make(chan error, 1)
	go func() { rebuilt <- c.Rebuild() }()
	select {
	case err := <-rebuilt:
		t.Fatalf("Rebuild returned %v beside a reconstruction in flight", err)
	case <-time.After(20 * time.Millisecond):
	}
	cell.mu.Lock()
	cell.aside = nil
	close(aside)
	cell.mu.Unlock()
	if err := <-rebuilt; err != nil {
		t.Fatalf("Rebuild after the reconstruction: %v", err)
	}
}

// The full RCU stress: lock-free readers (single and batched), COW
// writers, and non-blocking background rebuilds all at once, with every
// published snapshot structurally verified. Run with -race.
func TestConcurrentRebuildStress(t *testing.T) {
	ds := testDataset(t, 400)
	c := ShardedFrom(mustBuild(t, ds, Options{Seed: 45}))
	queries := ds.SampleQueries(12, 9)
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Readers: single-query and batched, pinned per call.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				q := ds.Objects[(g*31+i*7)%ds.Len()]
				if got := mustDo(c, SearchRequest{Query: &q, K: 5, Lambda: 0.5}); len(got) != 5 {
					t.Errorf("search returned %d", len(got))
					return
				}
				if got, err := c.DoBatch(BatchSearchRequest{Queries: queries, K: 3, Lambda: 0.5}); err != nil || len(got) != len(queries) {
					t.Errorf("batch returned %d sets (err %v)", len(got), err)
					return
				}
			}
		}(g)
	}
	// Invariant checker: every snapshot it observes must verify. It
	// runs until the workload goroutines finish (separate WaitGroup —
	// it is stopped, not waited on, by the main flow).
	var checkerWG sync.WaitGroup
	checkerWG.Add(1)
	go func() {
		defer checkerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := snapshot(c).CheckInvariants(); err != nil {
				t.Errorf("published snapshot violates invariants: %v", err)
				return
			}
		}
	}()
	// Writers: singles and coalesced batches.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				o := ds.Objects[(g*13+i)%ds.Len()]
				o.ID = uint32(630000 + g*1000 + i)
				if g == 0 {
					if err := c.Insert(o); err != nil {
						t.Errorf("insert: %v", err)
						return
					}
				} else {
					o2 := o
					o2.ID += 500
					if err := c.ApplyBatch([]Op{
						{Kind: OpInsert, Object: o},
						{Kind: OpInsert, Object: o2},
						{Kind: OpDelete, ID: o.ID},
					}); err != nil {
						t.Errorf("batch: %v", err)
						return
					}
				}
			}
		}(g)
	}
	// Background rebuilds, repeatedly, while everything else runs.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			done, err := c.RebuildInBackground()
			if errors.Is(err, ErrRebuildInProgress) {
				continue
			}
			if err != nil {
				t.Errorf("rebuild start: %v", err)
				return
			}
			if err := <-done; err != nil {
				t.Errorf("rebuild: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	checkerWG.Wait()

	snap := snapshot(c)
	if err := snap.CheckInvariants(); err != nil {
		t.Fatalf("final snapshot: %v", err)
	}
	// Coherence: batch against the final snapshot agrees with
	// sequential search against the same snapshot.
	final := mustDoBatch(t, snap, queries, 5, 0.5)
	for qi := range queries {
		seq := mustDo(snap, SearchRequest{Query: &queries[qi], K: 5, Lambda: 0.5})
		for i := range seq {
			if final[qi][i].Dist != seq[i].Dist {
				t.Fatalf("post-stress query %d result %d differs", qi, i)
			}
		}
	}
}
