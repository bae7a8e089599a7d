package cssi

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/keyword"
	"repro/internal/metric"
	"repro/internal/scan"
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

// writeBare applies op to a bare index through its public mutators.
func writeBare(x *Index, op Op) error {
	switch op.Kind {
	case OpInsert:
		return x.Insert(op.Object)
	case OpDelete:
		return x.Delete(op.ID)
	default:
		return x.Update(op.Object)
	}
}

// A one-shard index writing through per-op clones of its overlay and a
// bare index writing its own overlay, fed the same ops over the same
// build, answer every exact query as a linear scan of the live objects
// does, and every range and window read alike — before and after the
// shard's compaction.
func TestOverlayConcurrentEquivalence(t *testing.T) {
	ds := testDataset(t, 800)
	overlay := ShardedFrom(mustBuild(t, ds, Options{Seed: 41}))
	bare := mustBuild(t, ds, Options{Seed: 41})
	live := make(map[uint32]Object, ds.Len())
	for _, o := range ds.Objects {
		live[o.ID] = o
	}

	ops := overlayOps(ds, 120)
	for _, op := range ops {
		// Apply one at a time so the overlay path exercises per-op delta
		// clones, not one amortized batch.
		if err := overlay.ApplyBatch([]Op{op}); err != nil {
			t.Fatalf("overlay op: %v", err)
		}
		if err := writeBare(bare, op); err != nil {
			t.Fatalf("bare op: %v", err)
		}
		if op.Kind == OpDelete {
			delete(live, op.ID)
		} else {
			live[op.Object.ID] = op.Object
		}
	}
	if snapshot(overlay).DeltaOps() == 0 {
		t.Fatal("overlay wrapper buffered no delta ops (overlay path not engaged)")
	}
	if bare.DeltaOps() != snapshot(overlay).DeltaOps() {
		t.Fatalf("bare index buffered %d delta ops, the shard %d", bare.DeltaOps(), snapshot(overlay).DeltaOps())
	}
	if overlay.Len() != len(live) || bare.Len() != len(live) {
		t.Fatalf("live counts diverged: overlay %d, bare %d, want %d", overlay.Len(), bare.Len(), len(live))
	}
	liveDS := &Dataset{Dim: ds.Dim}
	for _, o := range live {
		liveDS.Objects = append(liveDS.Objects, o)
	}
	oracle := scan.New(liveDS, bare.space)
	compare := func(stage string) {
		t.Helper()
		for qi := 0; qi < 6; qi++ {
			q := ds.Objects[(qi*101+3)%ds.Len()]
			for _, lambda := range []float64{0, 0.5, 1} {
				ctx := fmt.Sprintf("%s q%d λ=%v", stage, qi, lambda)
				want := oracle.Search(&q, 10, lambda, nil)
				equalResults(t, ctx+" bare", want, mustDo(bare, SearchRequest{Query: &q, K: 10, Lambda: lambda}))
				equalResults(t, ctx+" overlay", want, mustDo(overlay, SearchRequest{Query: &q, K: 10, Lambda: lambda}))
			}
			r := 0.25
			ranged := SearchRequest{Query: &q, K: ds.Len(), Lambda: 0.5, Radius: &r}
			equalResults(t, stage+" range", mustDo(bare, ranged), mustDo(overlay, ranged))
			boxed := SearchRequest{Query: &q, K: 8, Window: &Window{LoX: q.X - 0.3, LoY: q.Y - 0.3, HiX: q.X + 0.3, HiY: q.Y + 0.3}}
			equalResults(t, stage+" box", mustDo(bare, boxed), mustDo(overlay, boxed))
			// Approximate answers are not contractually identical across
			// representations, but every returned ID must be live.
			for _, r := range mustDo(overlay, SearchRequest{Query: &q, K: 10, Lambda: 0.5, Approx: true}) {
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
	for _, bad := range []int{-1, -2, -7} {
		if err := s.SetDeltaThreshold(bad); err != ErrInvalidDeltaThreshold {
			t.Fatalf("SetDeltaThreshold(%d): %v", bad, err)
		}
	}
	for _, ok := range []int{0, 1, 16, 100000} {
		if err := s.SetDeltaThreshold(ok); err != nil {
			t.Fatalf("SetDeltaThreshold(%d): %v", ok, err)
		}
	}
}

// A bare index buffers its writes in its own overlay and folds within
// the write that brings the overlay to its threshold. After every write,
// the folding one included, exact answers equal the linear scan's, rank
// by rank with ties by ID, at λ ∈ {0, 0.5, 1} and k ∈ {1, 10, n+5}, and
// the invariants hold; the fold leaves no op buffered and no row
// unanchored.
func TestBareIndexFoldsAtThreshold(t *testing.T) {
	ds := testDataset(t, 600)
	const threshold = 24
	x := mustBuild(t, ds, Options{Seed: 61, DeltaCompactThreshold: threshold})
	live := make(map[uint32]Object, ds.Len())
	for _, o := range ds.Objects {
		live[o.ID] = o
	}
	folds := 0
	for i, op := range overlayOps(ds, 40) {
		before := x.DeltaOps()
		if err := writeBare(x, op); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if op.Kind == OpDelete {
			delete(live, op.ID)
		} else {
			live[op.Object.ID] = op.Object
		}
		switch after := x.DeltaOps(); {
		case after == 0:
			if before+2 < threshold {
				t.Fatalf("op %d folded at %d buffered ops, threshold %d", i, before, threshold)
			}
			if n := x.UnanchoredRows(); n != 0 {
				t.Fatalf("op %d: %d unanchored rows after the fold", i, n)
			}
			folds++
		case after >= threshold:
			t.Fatalf("op %d left %d ops buffered, threshold %d", i, after, threshold)
		}
		if err := x.CheckInvariants(); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		liveDS := &Dataset{Dim: ds.Dim}
		for _, o := range live {
			liveDS.Objects = append(liveDS.Objects, o)
		}
		oracle := scan.New(liveDS, x.space)
		n := len(live)
		q := ds.Objects[(i*131+7)%ds.Len()]
		for _, lambda := range []float64{0, 0.5, 1} {
			for _, k := range []int{1, 10, n + 5} {
				equalResults(t, fmt.Sprintf("op %d λ=%v k=%d", i, lambda, k),
					oracle.Search(&q, k, lambda, nil), mustDo(x, SearchRequest{Query: &q, K: k, Lambda: lambda}))
			}
		}
	}
	if folds == 0 {
		t.Fatal("no write folded the overlay")
	}
}

// The eager-clone write mode is gone: a threshold of -1 — in Options, as
// in a file saved while it existed — means the default, so the first
// write is buffered in the overlay, and the setter refuses it.
func TestOverlayNegativeThresholdMeansDefault(t *testing.T) {
	ds := testDataset(t, 300)
	c := ShardedFrom(mustBuild(t, ds, Options{Seed: 46, DeltaCompactThreshold: -1}))
	if got := c.shards[0].deltaThreshold.Load(); got != DefaultDeltaCompactThreshold {
		t.Fatalf("resolved threshold %d, want %d", got, DefaultDeltaCompactThreshold)
	}
	o := ds.Objects[7]
	o.ID = 700000
	if err := c.Insert(o); err != nil {
		t.Fatal(err)
	}
	if n := snapshot(c).DeltaOps(); n != 1 {
		t.Fatalf("DeltaOps after the first write = %d, want 1", n)
	}
	if err := c.SetDeltaThreshold(-1); !errors.Is(err, ErrInvalidDeltaThreshold) {
		t.Fatalf("SetDeltaThreshold(-1) = %v, want ErrInvalidDeltaThreshold", err)
	}
}

// Sharded overlay writes keep the scatter/gather exact contract: the
// merged result is bit-identical to a bare index fed the same stream,
// and per-shard stats expose the overlay state.
func TestOverlayShardedEquivalence(t *testing.T) {
	ds := testDataset(t, 900)
	for _, p := range []int{1, 3} {
		s, err := BuildSharded(ds, p, Options{Seed: 47})
		if err != nil {
			t.Fatal(err)
		}
		flat := mustBuild(t, ds, Options{Seed: 47})
		for _, op := range overlayOps(ds, 90) {
			if err := s.ApplyBatch([]Op{op}); err != nil {
				t.Fatalf("P=%d sharded op: %v", p, err)
			}
			if err := writeBare(flat, op); err != nil {
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
				want := mustDo(flat, SearchRequest{Query: &q, K: 10, Lambda: 0.5})
				got := mustDo(s, SearchRequest{Query: &q, K: 10, Lambda: 0.5})
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
				if got := mustDo(c, SearchRequest{Query: &q, K: 5, Lambda: 0.5}); len(got) != 5 {
					t.Errorf("search returned %d", len(got))
					return
				}
				mustDo(c, SearchRequest{Query: &q, K: 5, Lambda: 0.5, Approx: true})
				r := 0.1
				mustDo(c, SearchRequest{Query: &q, K: 10, Lambda: 0.5, Radius: &r})
				mustDo(c, SearchRequest{Query: &q, K: 3, Window: &Window{LoX: 0, LoY: 0, HiX: 1, HiY: 1}})
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
	before := mustDo(c, SearchRequest{Query: &q, K: 10, Lambda: 0.5})
	if err := c.Compact(); err != nil {
		t.Fatal(err)
	}
	after := mustDo(c, SearchRequest{Query: &q, K: 10, Lambda: 0.5})
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
// one shard and on two, with answers equal to a bare twin that saw only the
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
		twin := mustBuild(t, ds, Options{Seed: 53})
		both := func(op Op) {
			t.Helper()
			if err := w.ApplyBatch([]Op{op}); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if err := writeBare(twin, op); err != nil {
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
			equalResults(t, name+" vs bare twin", mustDo(twin, SearchRequest{Query: &q, K: 10, Lambda: 0.5}), mustDo(w, SearchRequest{Query: &q, K: 10, Lambda: 0.5}))
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
				want := mustDo(snap, SearchRequest{Query: &q, K: 10, Lambda: 0.5})
				wantKw := mustDo(snap, SearchRequest{Query: &q, K: 10, Lambda: 0.5, Keywords: keywords})
				for rep := 0; rep < 20; rep++ {
					select {
					case <-stop:
						return
					default:
					}
					got := mustDo(snap, SearchRequest{Query: &q, K: 10, Lambda: 0.5})
					gotKw := mustDo(snap, SearchRequest{Query: &q, K: 10, Lambda: 0.5, Keywords: keywords})
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

// The deterministic pin of "a published write costs what it touches":
// on one shard and on four, a single-op write — an insert, an update of
// a base row, a delete of a base row, a delete of an overlay row —
// allocates on average no more than publishing a snapshot header takes,
// ≤ 1.5 KiB and ≤ 4 allocations, and that cost does not grow from a
// 2,000-row base to a 20,000-row one (a copied tombstone bitmap would
// grow it by n/8 bytes per base-row write). The filter-free window sits past
// every shard's first base delete, which allocates its lineage's
// tombstones, and inside one log capacity (1,025+ of 2,048 slots), so
// no log doubling falls in it.
func TestOverlayWriteAllocBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations are not the program's")
	}
	const (
		maxBytes  = 1536
		maxAllocs = 4
		rounds    = 50 // of the four-op mix
	)
	ds := testDataset(t, 22000)
	perOp := func(rows, p int) (bytes, allocs float64) {
		base := ds.Prefix(rows)
		c := mustBuildSharded(t, base, p, Options{Seed: 59, DeltaCompactThreshold: 1 << 20})
		next, slots := 0, make([]int, p)
		var inserted []uint32
		insert := func() {
			o := ds.Objects[rows+next%2000]
			o.ID = uint32(750000 + next)
			next++
			if err := c.Insert(o); err != nil {
				t.Fatal(err)
			}
			slots[c.ShardFor(o.ID)]++
			inserted = append(inserted, o.ID)
		}
		row := 0
		baseRow := func() uint32 { row++; return base.Objects[row-1].ID }
		for si := 0; si < p; si++ {
			for {
				if id := baseRow(); c.ShardFor(id) == si {
					if err := c.Delete(id); err != nil {
						t.Fatal(err)
					}
					break
				}
			}
		}
		for slices.Min(slots) < 1025 {
			insert()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < rounds; i++ {
			insert()
			moved := ds.Objects[(i*37+11)%rows]
			moved.ID = baseRow()
			if err := c.Update(moved); err != nil {
				t.Fatal(err)
			}
			if err := c.Delete(baseRow()); err != nil {
				t.Fatal(err)
			}
			if err := c.Delete(inserted[i]); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		if slices.Max(slots)+2*rounds > 2048 {
			t.Fatalf("P=%d: a shard's log doubled inside the window", p)
		}
		ops := float64(4 * rounds)
		return float64(after.TotalAlloc-before.TotalAlloc) / ops, float64(after.Mallocs-before.Mallocs) / ops
	}
	for _, p := range []int{1, 4} {
		small, smallAllocs := perOp(2000, p)
		large, largeAllocs := perOp(20000, p)
		t.Logf("P=%d: a published write allocates %.0f B in %.2f allocations at 2,000 base rows, %.0f B in %.2f at 20,000", p, small, smallAllocs, large, largeAllocs)
		for _, c := range []struct{ bytes, allocs float64 }{{small, smallAllocs}, {large, largeAllocs}} {
			if c.bytes > maxBytes || c.allocs > maxAllocs {
				t.Fatalf("P=%d: a published write allocates %.0f B in %.2f allocations: want ≤ %d B and ≤ %d", p, c.bytes, c.allocs, maxBytes, maxAllocs)
			}
		}
		if large > small+64 {
			t.Fatalf("P=%d: a published write allocates %.0f B at 20,000 base rows, %.0f B at 2,000: the cost grows with the base", p, large, small)
		}
	}
	// With the keyword filter on, as every served write has it, the
	// filter's directory copy and touched posting lists come on top; they
	// do not grow with the ops the overlay buffers either. The eight
	// insert+delete pairs stay inside one log capacity (40+8 < 64,
	// 4000+8 < 4096).
	c := ShardedFrom(mustBuild(t, ds.Prefix(2000), Options{Seed: 59, DeltaCompactThreshold: 1 << 20}))
	c.EnableKeywordFilter()
	next := 0
	insert := func() uint32 {
		o := ds.Objects[(next*11+2)%2000]
		o.ID = uint32(750000 + next)
		next++
		if err := c.Insert(o); err != nil {
			t.Fatal(err)
		}
		return o.ID
	}
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
	t.Logf("keyword filter on: insert+delete allocates %d B at 40 buffered ops, %d B at 4000", small, large)
	if ceiling := uint64(64 << 10); large > 2*small || large > ceiling {
		t.Fatalf("keyword filter on: insert+delete allocates %d B at 4000 buffered ops: want ≤ 2× the %d B at 40 and ≤ %d", large, small, ceiling)
	}
}

// TestShardedCompactFold folds every kind of overlay through
// ShardedIndex.Compact at P = 1, 2 and 4: inserts only, deletes only,
// updates, every object deleted and then refilled, no ops at all, and
// every object deleted and then one insert, whose nearest semantic side
// has no live rows. Afterwards no shard buffers an op or holds an
// unanchored row, every invariant holds, each shard's Save → Load → Save
// is the identity, and exact answers equal the linear scan of the live
// objects rank by rank, with ties by ID, at λ ∈ {0, 0.5, 1} and
// k ∈ {1, 10, n+5}. (The core table, TestCompactFold, holds the folded
// layout and radii too.)
func TestShardedCompactFold(t *testing.T) {
	ds := testDataset(t, 1200)
	space, err := metric.NewSpace(ds)
	if err != nil {
		t.Fatal(err)
	}
	poolDS, err := GenerateDataset(DatasetConfig{Kind: YelpLike, Size: 60, Dim: ds.Dim, Seed: 72})
	if err != nil {
		t.Fatal(err)
	}
	pool := poolDS.Objects
	fresh := func(i int) Object {
		o := pool[i]
		o.ID, o.X = uint32(1_000_000+i), o.X*0.97
		return o
	}
	overlays := map[string]func() []Op{
		"inserts": func() (ops []Op) {
			for i := range 40 {
				ops = append(ops, Op{Kind: OpInsert, Object: fresh(i)})
			}
			return ops
		},
		"deletes": func() (ops []Op) {
			for i := 0; i < ds.Len(); i += 6 {
				ops = append(ops, Op{Kind: OpDelete, ID: ds.Objects[i].ID})
			}
			return ops
		},
		"updates": func() (ops []Op) {
			for i := 0; i < ds.Len(); i += 9 {
				o := ds.Objects[i]
				o.Y, o.Vec = o.Y*0.95, pool[i%len(pool)].Vec
				ops = append(ops, Op{Kind: OpUpdate, Object: o})
			}
			return ops
		},
		"refilled": func() (ops []Op) {
			for _, o := range ds.Objects {
				ops = append(ops, Op{Kind: OpDelete, ID: o.ID})
			}
			for _, o := range ds.Objects {
				o.X *= 0.99
				ops = append(ops, Op{Kind: OpInsert, Object: o})
			}
			return ops
		},
		"no ops": func() []Op { return nil },
		"insert into emptied": func() (ops []Op) {
			for _, o := range ds.Objects {
				ops = append(ops, Op{Kind: OpDelete, ID: o.ID})
			}
			return append(ops, Op{Kind: OpInsert, Object: fresh(0)})
		},
	}
	for _, p := range []int{1, 2, 4} {
		for name, write := range overlays {
			ctx := fmt.Sprintf("P=%d %s", p, name)
			s := mustBuildSharded(t, ds, p, Options{Seed: 48})
			live := map[uint32]Object{}
			for _, o := range ds.Objects {
				live[o.ID] = o
			}
			for _, op := range write() {
				if err := s.ApplyBatch([]Op{op}); err != nil {
					t.Fatalf("%s: %v", ctx, err)
				}
				if op.Kind == OpDelete {
					delete(live, op.ID)
				} else {
					live[op.Object.ID] = op.Object
				}
			}
			if err := s.Compact(); err != nil {
				t.Fatalf("%s: %v", ctx, err)
			}
			for _, st := range s.ShardStats() {
				if st.DeltaOps != 0 || st.Unanchored != 0 {
					t.Fatalf("%s: shard %d holds %d overlay ops and %d unanchored rows", ctx, st.Shard, st.DeltaOps, st.Unanchored)
				}
			}
			if err := s.CheckInvariants(); err != nil {
				t.Fatalf("%s: %v", ctx, err)
			}
			for i, sh := range s.shards {
				var first, again bytes.Buffer
				if err := sh.cur.Load().Save(&first); err != nil {
					t.Fatal(err)
				}
				loaded, err := LoadIndex(bytes.NewReader(first.Bytes()))
				if err != nil {
					t.Fatal(err)
				}
				if err := loaded.Save(&again); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(first.Bytes(), again.Bytes()) {
					t.Fatalf("%s: shard %d: Save → Load → Save changed the bytes", ctx, i)
				}
			}
			liveDS := &Dataset{Dim: ds.Dim}
			for _, o := range live {
				liveDS.Objects = append(liveDS.Objects, o)
			}
			oracle := scan.New(liveDS, space)
			n := len(live)
			for qi := 0; qi < 5; qi++ {
				q := ds.Objects[(qi*211+13)%ds.Len()]
				for _, lambda := range []float64{0, 0.5, 1} {
					for _, k := range []int{1, 10, n + 5} {
						equalResults(t, fmt.Sprintf("%s q%d λ=%v k=%d", ctx, qi, lambda, k),
							oracle.Search(&q, k, lambda, nil), mustDo(s, SearchRequest{Query: &q, K: k, Lambda: lambda}))
					}
				}
			}
		}
	}
}
