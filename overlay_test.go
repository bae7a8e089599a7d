package cssi

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/keyword"
	"repro/internal/text"
)

// overlayOps is a deterministic mixed write stream: fresh-ID inserts,
// deletes of base and of just-inserted objects, and base updates.
func overlayOps(ds *Dataset, n int) []Op {
	ops := make([]Op, 0, n)
	for i := 0; i < n; i++ {
		switch i % 4 {
		case 0, 1:
			o := ds.Objects[(i*13+5)%ds.Len()]
			o.ID = uint32(500000 + i)
			ops = append(ops, Op{Kind: OpInsert, Object: o})
		case 2:
			if i%8 == 2 {
				// Delete an object inserted earlier in this stream.
				ops = append(ops, Op{Kind: OpDelete, ID: uint32(500000 + i - 2)})
			} else {
				ops = append(ops, Op{Kind: OpDelete, ID: ds.Objects[(i*7+3)%ds.Len()].ID})
			}
		case 3:
			o := ds.Objects[(i*11+1)%ds.Len()]
			o.X, o.Y = 1-o.X, 1-o.Y
			ops = append(ops, Op{Kind: OpUpdate, Object: o})
		}
	}
	return ops
}

// The wrapper-level tentpole property: a one-shard index writing
// through the delta overlay answers every exact query bit-identically
// to one writing through eager copy-on-write clones, given the same
// build seed and write stream — before and after compaction.
func TestOverlayConcurrentEquivalence(t *testing.T) {
	ds := testDataset(t, 800)
	overlay := ShardedFrom(mustBuild(t, ds, Options{Seed: 41}))
	eager := ShardedFrom(mustBuild(t, ds, Options{Seed: 41, DeltaCompactThreshold: DeltaDisabled}))

	ops := overlayOps(ds, 120)
	for _, op := range ops {
		// Apply one at a time so the overlay path exercises per-op delta
		// clones, not one amortized batch.
		if err := overlay.ApplyBatch([]Op{op}); err != nil {
			t.Fatalf("overlay op: %v", err)
		}
		if err := eager.ApplyBatch([]Op{op}); err != nil {
			t.Fatalf("eager op: %v", err)
		}
	}
	if snapshot(overlay).DeltaOps() == 0 {
		t.Fatal("overlay wrapper buffered no delta ops (overlay path not engaged)")
	}
	if snapshot(eager).DeltaOps() != 0 {
		t.Fatalf("eager wrapper buffered %d delta ops", snapshot(eager).DeltaOps())
	}
	if overlay.Len() != eager.Len() {
		t.Fatalf("live counts diverged: overlay %d, eager %d", overlay.Len(), eager.Len())
	}
	compare := func(stage string) {
		t.Helper()
		for qi := 0; qi < 6; qi++ {
			q := ds.Objects[(qi*101+3)%ds.Len()]
			for _, lambda := range []float64{0, 0.5, 1} {
				want := eager.Search(&q, 10, lambda)
				got := overlay.Search(&q, 10, lambda)
				if len(want) != len(got) {
					t.Fatalf("%s: exact λ=%v sizes %d vs %d", stage, lambda, len(got), len(want))
				}
				for i := range want {
					if want[i] != got[i] {
						t.Fatalf("%s: exact λ=%v result %d = %+v, want %+v", stage, lambda, i, got[i], want[i])
					}
				}
			}
			wr := eager.RangeSearch(&q, 0.25, 0.5)
			gr := overlay.RangeSearch(&q, 0.25, 0.5)
			if len(wr) != len(gr) {
				t.Fatalf("%s: range sizes %d vs %d", stage, len(gr), len(wr))
			}
			for i := range wr {
				if wr[i] != gr[i] {
					t.Fatalf("%s: range result %d differs", stage, i)
				}
			}
			wb := eager.SearchInBox(&q, q.X-0.3, q.Y-0.3, q.X+0.3, q.Y+0.3, 8)
			gb := overlay.SearchInBox(&q, q.X-0.3, q.Y-0.3, q.X+0.3, q.Y+0.3, 8)
			for i := range wb {
				if wb[i] != gb[i] {
					t.Fatalf("%s: box result %d differs", stage, i)
				}
			}
			// Approximate answers are not contractually identical across
			// representations, but every returned ID must be live.
			for _, r := range overlay.SearchApprox(&q, 10, 0.5) {
				if _, ok := overlay.Object(r.ID); !ok {
					t.Fatalf("%s: approx returned non-live object %d", stage, r.ID)
				}
			}
		}
	}
	compare("pre-compaction")
	if err := overlay.Compact(); err != nil {
		t.Fatal(err)
	}
	if snapshot(overlay).DeltaOps() != 0 {
		t.Fatalf("post-compact DeltaOps = %d", snapshot(overlay).DeltaOps())
	}
	if overlay.shards[0].compactions.Load() == 0 {
		t.Fatal("explicit Compact not counted")
	}
	compare("post-compaction")
	if err := snapshot(overlay).CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Crossing the threshold must trigger a background compaction that
// folds the overlay without losing any acknowledged write.
func TestOverlayBackgroundCompaction(t *testing.T) {
	ds := testDataset(t, 500)
	c := ShardedFrom(mustBuild(t, ds, Options{Seed: 43}))
	if err := c.SetDeltaThreshold(8); err != nil {
		t.Fatal(err)
	}
	var observed atomic.Int64
	c.SetCompactionObserver(func(d time.Duration) {
		if d <= 0 {
			t.Error("non-positive compaction duration")
		}
		observed.Add(1)
	})
	for i := 0; i < 40; i++ {
		o := ds.Objects[i%ds.Len()]
		o.ID = uint32(600000 + i)
		if err := c.Insert(o); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for c.shards[0].compactions.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no background compaction within deadline")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if observed.Load() == 0 {
		t.Fatal("compaction observer not invoked")
	}
	// Every acknowledged insert is visible regardless of which snapshot
	// generation (overlay or folded) currently serves.
	for i := 0; i < 40; i++ {
		if _, ok := c.Object(uint32(600000 + i)); !ok {
			t.Fatalf("insert %d lost across compaction", i)
		}
	}
	if c.Len() != ds.Len()+40 {
		t.Fatalf("Len = %d, want %d", c.Len(), ds.Len()+40)
	}
	if err := snapshot(c).CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// The threshold setter's validation contract.
func TestOverlayThresholdValidation(t *testing.T) {
	s := mustBuildSharded(t, testDataset(t, 300), 2, Options{Seed: 45})
	for _, bad := range []int{-2, -7} {
		if err := s.SetDeltaThreshold(bad); err != ErrInvalidDeltaThreshold {
			t.Fatalf("SetDeltaThreshold(%d): %v", bad, err)
		}
	}
	for _, ok := range []int{DeltaDisabled, 0, 1, 16, 100000} {
		if err := s.SetDeltaThreshold(ok); err != nil {
			t.Fatalf("SetDeltaThreshold(%d): %v", ok, err)
		}
	}
}

// Sharded overlay writes keep the scatter/gather exact contract: the
// merged result is bit-identical to an unsharded eager index fed the
// same stream, and per-shard stats expose the overlay state.
func TestOverlayShardedEquivalence(t *testing.T) {
	ds := testDataset(t, 900)
	for _, p := range []int{1, 3} {
		s, err := BuildSharded(ds, p, Options{Seed: 47})
		if err != nil {
			t.Fatal(err)
		}
		flat := ShardedFrom(mustBuild(t, ds, Options{Seed: 47, DeltaCompactThreshold: DeltaDisabled}))
		for _, op := range overlayOps(ds, 90) {
			if err := s.ApplyBatch([]Op{op}); err != nil {
				t.Fatalf("P=%d sharded op: %v", p, err)
			}
			if err := flat.ApplyBatch([]Op{op}); err != nil {
				t.Fatalf("P=%d flat op: %v", p, err)
			}
		}
		buffered := 0
		for _, st := range s.ShardStats() {
			buffered += st.DeltaOps
		}
		if buffered == 0 {
			t.Fatalf("P=%d: no shard buffered delta ops", p)
		}
		check := func(stage string) {
			t.Helper()
			for qi := 0; qi < 5; qi++ {
				q := ds.Objects[(qi*67+9)%ds.Len()]
				want := flat.Search(&q, 10, 0.5)
				got := s.Search(&q, 10, 0.5)
				if len(want) != len(got) {
					t.Fatalf("P=%d %s: sizes %d vs %d", p, stage, len(got), len(want))
				}
				for i := range want {
					if want[i] != got[i] {
						t.Fatalf("P=%d %s: result %d = %+v, want %+v", p, stage, i, got[i], want[i])
					}
				}
			}
		}
		check("pre-compaction")
		if err := s.Compact(); err != nil {
			t.Fatal(err)
		}
		for _, st := range s.ShardStats() {
			if st.DeltaOps != 0 {
				t.Fatalf("P=%d: shard %d still buffers %d ops after Compact", p, st.Shard, st.DeltaOps)
			}
		}
		check("post-compaction")
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
	}
}

// Race stress (run under -race in CI): concurrent searches, routed
// writes, explicit compactions, and threshold-triggered background
// compactions against one overlay-enabled wrapper.
func TestOverlayConcurrentStress(t *testing.T) {
	ds := testDataset(t, 600)
	c := ShardedFrom(mustBuild(t, ds, Options{Seed: 49}))
	if err := c.SetDeltaThreshold(16); err != nil {
		t.Fatal(err)
	}
	c.SetCompactionObserver(func(time.Duration) {})
	var wg sync.WaitGroup
	// Readers across every mode.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				q := ds.Objects[(g*53+i*17)%ds.Len()]
				if got := c.Search(&q, 5, 0.5); len(got) != 5 {
					t.Errorf("search returned %d", len(got))
					return
				}
				c.SearchApprox(&q, 5, 0.5)
				c.RangeSearch(&q, 0.1, 0.5)
				c.SearchInBox(&q, 0, 0, 1, 1, 3)
			}
		}(g)
	}
	// Writers on disjoint ID ranges; deletes and updates target their
	// own inserts so ops never conflict across goroutines.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base := uint32(700000 + g*10000)
			for i := 0; i < 30; i++ {
				o := ds.Objects[(g*31+i)%ds.Len()]
				o.ID = base + uint32(i)
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
				}
			}
		}(g)
	}
	// Periodic explicit compactions interleave with the background ones.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if err := c.Compact(); err != nil {
				t.Errorf("compact: %v", err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	// Post-stress coherence: fold whatever overlay remains and verify
	// the folded index answers exactly like the final overlay state.
	q := ds.Objects[11]
	before := c.Search(&q, 10, 0.5)
	if err := c.Compact(); err != nil {
		t.Fatal(err)
	}
	after := c.Search(&q, 10, 0.5)
	if len(before) != len(after) {
		t.Fatalf("compaction changed result size %d -> %d", len(before), len(after))
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("compaction changed result %d: %+v -> %+v", i, after[i], before[i])
		}
	}
	if err := snapshot(c).CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// An all-or-nothing batch that fails after its clone already appended to
// the overlay log leaves the lineage's tail claimed by a clone nobody
// will ever publish. Nothing of the batch may show, and the next write —
// whose clone can no longer claim that slot — must still go through, on
// one shard and on two, with answers equal to an eager twin that saw only the
// acknowledged ops.
func TestOverlayAbandonedBatchThenWrite(t *testing.T) {
	ds := testDataset(t, 500)
	for name, w := range map[string]*ShardedIndex{
		"P=1": ShardedFrom(mustBuild(t, ds, Options{Seed: 53})),
		"P=2": mustBuildSharded(t, ds, 2, Options{Seed: 53}),
	} {
		publications := func() (n int64) {
			for _, st := range w.ShardStats() {
				n += st.Publications
			}
			return n
		}
		twin := ShardedFrom(mustBuild(t, ds, Options{Seed: 53, DeltaCompactThreshold: DeltaDisabled}))
		both := func(op Op) {
			t.Helper()
			if err := w.ApplyBatch([]Op{op}); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if err := twin.ApplyBatch([]Op{op}); err != nil {
				t.Fatalf("%s twin: %v", name, err)
			}
		}
		// Acknowledged writes first, so the log has backing arrays and a
		// tail for the failing batch to claim from.
		fresh := func(i int) Object {
			o := ds.Objects[(i*29+3)%ds.Len()]
			o.ID = uint32(800000 + 2*i) // even: one shard of two
			return o
		}
		for i := 0; i < 5; i++ {
			both(Op{Kind: OpInsert, Object: fresh(i)})
		}
		lost := fresh(5)
		unknown := uint32(900000)
		for w.ShardFor(unknown) != w.ShardFor(lost.ID) {
			unknown++ // same shard, so the two ops are one shard batch
		}
		pubs, n := publications(), w.Len()
		if err := w.ApplyBatch([]Op{{Kind: OpInsert, Object: lost}, {Kind: OpDelete, ID: unknown}}); err == nil {
			t.Fatalf("%s: batch deleting an unknown ID succeeded", name)
		}
		if publications() != pubs || w.Len() != n {
			t.Fatalf("%s: failed batch published (publications %d -> %d, Len %d -> %d)", name, pubs, publications(), n, w.Len())
		}
		if _, ok := w.Object(lost.ID); ok {
			t.Fatalf("%s: insert of the failed batch is visible", name)
		}
		// Same ID, another object: the abandoned slot must not resurface.
		retry := ds.Objects[77]
		retry.ID = lost.ID
		both(Op{Kind: OpInsert, Object: retry})
		both(Op{Kind: OpInsert, Object: fresh(6)})
		if got, ok := w.Object(lost.ID); !ok || got.X != retry.X || got.Y != retry.Y {
			t.Fatalf("%s: Object(%d) = %+v, %v after the retried insert", name, lost.ID, got, ok)
		}
		for qi := 0; qi < 6; qi++ {
			q := ds.Objects[(qi*83+5)%ds.Len()]
			equalResults(t, name+" vs eager twin", twin.Search(&q, 10, 0.5), w.Search(&q, 10, 0.5))
		}
		if err := w.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// The keyword filter's twin property: after a random insert / update /
// delete stream through one shard (background folds included),
// every term's candidate list equals that of a filter built from scratch
// over the live set — on the current snapshot and on one pinned halfway,
// whose buckets every later write started out sharing. One term loses
// its last posting before the pin and gets it back after.
func TestOverlayKeywordFilterTwin(t *testing.T) {
	ds := testDataset(t, 600)
	c := ShardedFrom(mustBuild(t, ds, Options{Seed: 55, DeltaCompactThreshold: 150}))
	c.EnableKeywordFilter()
	const rare = "zzonlyhere"
	live := make(map[uint32]string, ds.Len())
	terms := map[string]bool{rare: true}
	var liveIDs []uint32
	for _, o := range ds.Objects {
		live[o.ID] = o.Text
		liveIDs = append(liveIDs, o.ID)
	}
	apply := func(op Op) {
		t.Helper()
		if err := c.ApplyBatch([]Op{op}); err != nil {
			t.Fatal(err)
		}
		if op.Kind == OpDelete {
			delete(live, op.ID)
			return
		}
		live[op.Object.ID] = op.Object.Text
		for _, tok := range text.Tokenize(op.Object.Text) {
			terms[tok] = true
		}
	}
	check := func(stage string, snap *Index, live map[uint32]string) {
		t.Helper()
		ids := make([]uint32, 0, len(live))
		for id := range live {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		texts := make([]string, len(ids))
		for i, id := range ids {
			texts[i] = live[id]
		}
		want := keyword.Build(ids, texts, 0)
		for term := range terms {
			w, _ := want.Candidates([]string{term})
			got, ok := snap.kw.Candidates([]string{term})
			if !ok || !slices.Equal(got, w) {
				t.Fatalf("%s: Candidates(%q) = %v, rebuilt filter says %v", stage, term, got, w)
			}
		}
	}
	for _, o := range ds.Objects {
		for _, tok := range text.Tokenize(o.Text) {
			terms[tok] = true
		}
	}
	rng := rand.New(rand.NewSource(7))
	rareObj := ds.Objects[3]
	rareObj.ID, rareObj.Text = 990000, rareObj.Text+" "+rare
	var pinned *Index
	var pinnedLive map[uint32]string
	for i := 0; i < 600; i++ {
		switch {
		case i == 100 || i == 400:
			apply(Op{Kind: OpInsert, Object: rareObj})
		case i == 200:
			apply(Op{Kind: OpDelete, ID: rareObj.ID})
		case i == 300:
			pinned, pinnedLive = snapshot(c), make(map[uint32]string, len(live))
			for id, txt := range live {
				pinnedLive[id] = txt
			}
			if pinned.KeywordDocFrequency(rare) != 0 {
				t.Fatal("rare term survived the delete of its last posting")
			}
		}
		victim := liveIDs[rng.Intn(len(liveIDs))]
		_, victimLive := live[victim]
		switch r := rng.Intn(3); {
		case r == 0 || !victimLive:
			o := ds.Objects[rng.Intn(ds.Len())]
			o.ID = uint32(600000 + i)
			liveIDs = append(liveIDs, o.ID)
			apply(Op{Kind: OpInsert, Object: o})
		case r == 1:
			o := ds.Objects[rng.Intn(ds.Len())]
			o.ID = victim
			apply(Op{Kind: OpUpdate, Object: o})
		default:
			apply(Op{Kind: OpDelete, ID: victim})
		}
	}
	if snapshot(c).KeywordDocFrequency(rare) != 1 {
		t.Fatal("rare term not re-added")
	}
	check("current", snapshot(c), live)
	check("pinned", pinned, pinnedLive)
	if err := c.Compact(); err != nil {
		t.Fatal(err)
	}
	check("compacted", snapshot(c), live)
	check("pinned after compaction", pinned, pinnedLive)
}

// Readers keep querying snapshots they pinned while one writer appends
// to the log arrays those snapshots share: ≥ 5,000 ops, so the log goes
// through every capacity from 16 slots to 4,096 and the default
// threshold starts a background fold. A pinned snapshot must answer the
// same thing every time (run under -race in CI: an append that reached a
// slot a reader can see is a reported race).
func TestOverlayAppendUnderReaders(t *testing.T) {
	ds := testDataset(t, 600)
	c := ShardedFrom(mustBuild(t, ds, Options{Seed: 57}))
	c.EnableKeywordFilter()
	keywords := text.Tokenize(ds.Objects[0].Text)[:1]
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; ; round++ {
				snap := snapshot(c) // shares its log with the writer's next clones
				q := ds.Objects[(g*97+round*13)%ds.Len()]
				want := snap.Search(&q, 10, 0.5)
				wantKw, _ := snap.SearchWithKeywords(&q, 10, 0.5, keywords...)
				for rep := 0; rep < 20; rep++ {
					select {
					case <-stop:
						return
					default:
					}
					got := snap.Search(&q, 10, 0.5)
					gotKw, _ := snap.SearchWithKeywords(&q, 10, 0.5, keywords...)
					if !slices.Equal(got, want) || !slices.Equal(gotKw, wantKw) {
						t.Errorf("pinned snapshot %d changed its answer", snap.snapID)
						return
					}
				}
			}
		}(g)
	}
	const inserts = 4400
	for i := 0; i < inserts; i++ {
		o := ds.Objects[(i*7+1)%ds.Len()]
		o.ID = uint32(700000 + i)
		if err := c.Insert(o); err != nil {
			t.Fatal(err)
		}
		switch i % 8 {
		case 3:
			if err := c.Delete(o.ID); err != nil {
				t.Fatal(err)
			}
		case 5:
			o.X = 1 - o.X
			if err := c.Update(o); err != nil { // two overlay ops
				t.Fatal(err)
			}
		}
	}
	deadline := time.Now().Add(20 * time.Second)
	for c.shards[0].compactions.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if c.shards[0].compactions.Load() == 0 {
		t.Fatal("no background compaction within deadline")
	}
	if want := ds.Len() + inserts - inserts/8; c.Len() != want {
		t.Fatalf("Len = %d, want %d", c.Len(), want)
	}
	if err := snapshot(c).CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// The deterministic pin of "a served write costs what it touches": the
// bytes one single-op Insert and one Delete allocate, keyword filter on,
// do not grow with the ops already buffered — nor, the buckets and
// chunks being fixed-size, with the vocabulary.
func TestOverlayWriteAllocBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations are not the program's")
	}
	ds := testDataset(t, 2000)
	c := ShardedFrom(mustBuild(t, ds, Options{Seed: 59, DeltaCompactThreshold: 1 << 20}))
	c.EnableKeywordFilter()
	next := 0
	insert := func() uint32 {
		o := ds.Objects[(next*11+2)%ds.Len()]
		o.ID = uint32(750000 + next)
		next++
		if err := c.Insert(o); err != nil {
			t.Fatal(err)
		}
		return o.ID
	}
	// bytesPerPair buffers inserts up to `buffered` ops, then measures
	// insert+delete pairs; the eight pairs stay inside one log capacity
	// (40+8 < 64, 4000+8 < 4096), so no doubling falls in the window.
	bytesPerPair := func(buffered int) uint64 {
		for snapshot(c).DeltaOps() < buffered {
			insert()
		}
		const pairs = 8
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < pairs; i++ {
			if err := c.Delete(insert()); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / pairs
	}
	small, large := bytesPerPair(40), bytesPerPair(4000)
	t.Logf("insert+delete allocates %d B at 40 buffered ops, %d B at 4000", small, large)
	const ceiling = 64 << 10
	if large > 2*small || large > ceiling {
		t.Fatalf("insert+delete allocates %d B at 4000 buffered ops: want ≤ 2× the %d B at 40 and ≤ %d", large, small, ceiling)
	}
}
