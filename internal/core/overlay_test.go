package core

import (
	"bytes"
	"testing"

	"repro/internal/dataset"
	"repro/internal/knn"
)

// cloneHeader copies x's header by value, as the facade does when it
// publishes a write: base and write overlay shared, and the copy's
// writes invisible through x, which answers as it did. Writing the copy
// costs what writing x would. x and its copies are written one at a
// time; writing one the lineage was written past forks a private
// overlay first.
func cloneHeader(x *Index) *Index {
	nx := *x
	return &nx
}

// mutateBoth drives an overlay clone and an independent copy through the
// same write stream: inserts of fresh objects, deletes of base objects,
// updates, and deletes of overlay-inserted objects. Returns the set of
// IDs that must not appear in any result.
func mutateBoth(t *testing.T, overlay, twin *Index, extra []dataset.Object, baseIDs []uint32) map[uint32]bool {
	t.Helper()
	apply := func(op string, fn func(x *Index) error) {
		if err := fn(overlay); err != nil {
			t.Fatalf("overlay %s: %v", op, err)
		}
		if err := fn(twin); err != nil {
			t.Fatalf("twin %s: %v", op, err)
		}
	}
	deadIDs := make(map[uint32]bool)
	// Inserts.
	for i := range extra {
		o := extra[i]
		apply("insert", func(x *Index) error { return x.Insert(o) })
	}
	// Deletes of base objects.
	for _, id := range baseIDs[:len(baseIDs)/2] {
		id := id
		apply("delete", func(x *Index) error { return x.Delete(id) })
		deadIDs[id] = true
	}
	// Updates of base objects: keep the ID, move location and vector.
	for i, id := range baseIDs[len(baseIDs)/2:] {
		o := extra[i%len(extra)]
		o.ID = id
		apply("update", func(x *Index) error { return x.Update(o) })
	}
	// Deletes of overlay-inserted objects (log-slot death path).
	for i := 0; i < len(extra)/4; i++ {
		id := extra[i].ID
		apply("delete-inserted", func(x *Index) error { return x.Delete(id) })
		deadIDs[id] = true
	}
	return deadIDs
}

func overlayFixture(t *testing.T, size int) (*fixture, *Index, *Index, map[uint32]bool) {
	t.Helper()
	f := build(t, dataset.TwitterLike, size, Config{Seed: 91})
	extraDS, err := dataset.Generate(dataset.GenConfig{Kind: dataset.TwitterLike, Size: size / 4, Dim: 32, Seed: 92})
	if err != nil {
		t.Fatal(err)
	}
	extra := extraDS.Objects
	for i := range extra {
		extra[i].ID += 1 << 20
	}
	var baseIDs []uint32
	for i := 0; i < size/5; i++ {
		baseIDs = append(baseIDs, f.ds.Objects[(i*37+11)%size].ID)
	}
	overlay := cloneHeader(f.idx)
	twin := saveLoad(t, f.idx)
	deadIDs := mutateBoth(t, overlay, twin, extra, dedupIDs(baseIDs))
	// The twin shares nothing with f.idx and folds its own overlay.
	twin, err = twin.Compact()
	if err != nil {
		t.Fatal(err)
	}
	return f, overlay, twin, deadIDs
}

func dedupIDs(ids []uint32) []uint32 {
	seen := make(map[uint32]bool, len(ids))
	out := ids[:0]
	for _, id := range ids {
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	return out
}

// The tentpole property: after an identical mutation stream, base+delta
// search is bit-identical to an independent copy, written and folded, AND
// to the overlay's own fold, across every exact mode.
func TestOverlayExactEquivalence(t *testing.T) {
	f, overlay, twin, _ := overlayFixture(t, 1200)
	if overlay.Len() != twin.Len() {
		t.Fatalf("live counts diverged: overlay %d, twin %d", overlay.Len(), twin.Len())
	}
	if err := overlay.CheckInvariants(); err != nil {
		t.Fatalf("overlay invariants: %v", err)
	}
	compacted, err := overlay.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if compacted.DeltaOps() != 0 {
		t.Fatalf("compacted index still carries %d delta ops", compacted.DeltaOps())
	}
	if err := compacted.CheckInvariants(); err != nil {
		t.Fatalf("compacted invariants: %v", err)
	}
	if compacted.Len() != overlay.Len() {
		t.Fatalf("compaction changed live count: %d vs %d", compacted.Len(), overlay.Len())
	}
	for _, lambda := range []float64{0, 0.3, 0.5, 0.8, 1} {
		for _, k := range []int{1, 10, 60} {
			for qi := 0; qi < 4; qi++ {
				q := f.ds.Objects[(qi*211+7)%f.ds.Len()]
				want := twin.Search(&q, k, lambda, nil)
				identicalResults(t, "exact vs twin", want, overlay.Search(&q, k, lambda, nil))
				identicalResults(t, "exact vs compacted", want, compacted.Search(&q, k, lambda, nil))
			}
		}
	}
	q := f.ds.Objects[17]
	// Filtered: an ID-parity predicate.
	allow := func(id uint32) bool { return id%2 == 0 }
	identicalResults(t, "filtered",
		filteredSearch(twin, &q, 10, 0.5, allow, nil),
		filteredSearch(overlay, &q, 10, 0.5, allow, nil))
	// Range.
	identicalResults(t, "range",
		rangeSearch(twin, &q, 0.2, 0.5, nil),
		rangeSearch(overlay, &q, 0.2, 0.5, nil))
	// Box (window around the query).
	identicalResults(t, "box",
		boxSearch(twin, &q, Window{q.X - 0.2, q.Y - 0.2, q.X + 0.2, q.Y + 0.2}, 10, nil),
		boxSearch(overlay, &q, Window{q.X - 0.2, q.Y - 0.2, q.X + 0.2, q.Y + 0.2}, 10, nil))
	// Ablated (all switch combinations stay exact over base+delta).
	for _, opts := range []AblationOptions{
		{}, {DisableInterCluster: true}, {DisableIntraCluster: true}, {DisableClusterOrder: true},
		{DisableInterCluster: true, DisableIntraCluster: true, DisableClusterOrder: true},
	} {
		identicalResults(t, "ablated",
			twin.SearchAblated(&q, 10, 0.5, opts, nil),
			overlay.SearchAblated(&q, 10, 0.5, opts, nil))
	}
}

// The approximate mode must never resurrect a deleted object nor miss
// an overlay insert that the independent copy returns. (Their
// base-cluster coverage is heuristic, so full bit-identity is not the
// contract; skipping tombstones and offering every overlay insert that
// can enter the answer is.)
func TestOverlayApproxNoResurrection(t *testing.T) {
	f, overlay, _, deadIDs := overlayFixture(t, 1200)
	check := func(mode string, res []knn.Result) {
		t.Helper()
		for _, r := range res {
			if deadIDs[r.ID] {
				t.Fatalf("%s resurrected deleted object %d", mode, r.ID)
			}
			if _, ok := overlay.Object(r.ID); !ok {
				t.Fatalf("%s returned non-live object %d", mode, r.ID)
			}
		}
	}
	for qi := 0; qi < 6; qi++ {
		q := f.ds.Objects[(qi*131+5)%f.ds.Len()]
		check("approx", overlay.SearchApprox(&q, 20, 0.5, nil))
	}
}

// Sibling isolation: cloning an overlay snapshot and mutating the child
// never changes the parent's answers (the property RCU publication
// rests on).
func TestOverlayCloneIsolation(t *testing.T) {
	t.Run("siblings", testOverlaySiblingWrites)
	f := build(t, dataset.TwitterLike, 400, Config{Seed: 93})
	parent := cloneHeader(f.idx)
	if err := parent.Insert(dataset.Object{ID: 1 << 21, X: 0.5, Y: 0.5, Vec: f.ds.Objects[0].Vec}); err != nil {
		t.Fatal(err)
	}
	q := f.ds.Objects[9]
	before := parent.Search(&q, 10, 0.5, nil)
	beforeLen := parent.Len()

	child := cloneHeader(parent)
	if err := child.Delete(f.ds.Objects[9].ID); err != nil {
		t.Fatal(err)
	}
	if err := child.Delete(1 << 21); err != nil {
		t.Fatal(err)
	}
	if err := child.Insert(dataset.Object{ID: 1 << 22, X: 0.1, Y: 0.9, Vec: f.ds.Objects[1].Vec}); err != nil {
		t.Fatal(err)
	}
	if parent.Len() != beforeLen {
		t.Fatalf("child mutation changed parent Len: %d -> %d", beforeLen, parent.Len())
	}
	identicalResults(t, "parent after child writes", before, parent.Search(&q, 10, 0.5, nil))
	if _, ok := parent.Object(1 << 21); !ok {
		t.Fatal("child delete leaked into parent overlay")
	}
	if err := child.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Real siblings: two copies of one parent's header write, then the
// parent itself writes. The three share one overlay — log, ID table,
// group chunks, tombstones — that the parent wrote with room to spare,
// so a write that did not fork would land where a sibling looks. Each of
// the three must equal an independent copy fed its own stream; exactly
// one of them (the first to write) keeps the lineage's overlay, the
// other two fork private copies of it as of the parent's header.
func testOverlaySiblingWrites(t *testing.T) {
	f := build(t, dataset.TwitterLike, 600, Config{Seed: 95})
	extraDS, err := dataset.Generate(dataset.GenConfig{Kind: dataset.TwitterLike, Size: 320, Dim: 32, Seed: 96})
	if err != nil {
		t.Fatal(err)
	}
	extra := extraDS.Objects
	for i := range extra {
		extra[i].ID += 1 << 20
	}
	// stream i: inserts of its own slice of extra, deletes of parent
	// inserts (log-slot death) and of base objects (tombstones).
	common := func(x *Index) {
		for _, o := range extra[:200] {
			if err := x.Insert(o); err != nil {
				t.Fatal(err)
			}
		}
	}
	stream := func(x *Index, i int) {
		for j, o := range extra[200+40*i : 240+40*i] {
			if err := x.Insert(o); err != nil {
				t.Fatal(err)
			}
			if j%4 == 0 {
				if err := x.Delete(extra[3*j+i].ID); err != nil {
					t.Fatal(err)
				}
				if err := x.Delete(f.ds.Objects[5*j+i].ID); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	parent := cloneHeader(f.idx)
	common(parent)
	lineage := parent.delta
	a, b := cloneHeader(parent), cloneHeader(parent)
	stream(a, 0)
	stream(b, 1)
	stream(parent, 2)
	if a.delta != lineage {
		t.Error("the first sibling to write did not keep the lineage's overlay")
	}
	if b.delta == lineage || parent.delta == lineage {
		t.Error("a header the lineage was written past still writes the lineage's overlay")
	}
	for i, x := range []*Index{a, b, parent} {
		twin := saveLoad(t, f.idx)
		common(twin)
		stream(twin, i)
		if x.Len() != twin.Len() {
			t.Fatalf("sibling %d: Len %d, twin %d", i, x.Len(), twin.Len())
		}
		if err := x.CheckInvariants(); err != nil {
			t.Fatalf("sibling %d: %v", i, err)
		}
		for qi := 0; qi < 8; qi++ {
			q := extra[(qi*41+200)%len(extra)]
			identicalResults(t, "sibling vs twin",
				twin.Search(&q, 25, 0.5, nil), x.Search(&q, 25, 0.5, nil))
		}
		for _, o := range extra {
			_, want := twin.Object(o.ID)
			if _, got := x.Object(o.ID); got != want {
				t.Fatalf("sibling %d: Object(%d) present=%v, twin %v", i, o.ID, got, want)
			}
		}
	}
}

// Save on an overlay-carrying snapshot folds the delta (the wire format
// stays flat), and the loaded index answers like the overlay did.
func TestOverlayPersistRoundTrip(t *testing.T) {
	f, overlay, twin, _ := overlayFixture(t, 600)
	var buf bytes.Buffer
	if err := overlay.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, _, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.DeltaOps() != 0 {
		t.Fatal("loaded index carries a write overlay")
	}
	if loaded.Len() != overlay.Len() {
		t.Fatalf("loaded Len %d, want %d", loaded.Len(), overlay.Len())
	}
	// Save folded the overlay, which leaves the index cluster-major, and
	// Load keeps that layout.
	requireClusterMajor(t, "loaded", loaded)
	for qi := 0; qi < 4; qi++ {
		q := f.ds.Objects[(qi*97+3)%f.ds.Len()]
		identicalResults(t, "loaded",
			twin.Search(&q, 10, 0.5, nil),
			loaded.Search(&q, 10, 0.5, nil))
	}
}

// Mutation-path bookkeeping: DeltaOps counts every write, duplicate and
// missing IDs error exactly like a flat index's first write, and ForEachLive /
// collectLive see base minus tombstones plus live overlay inserts.
func TestOverlayBookkeeping(t *testing.T) {
	f := build(t, dataset.TwitterLike, 300, Config{Seed: 94})
	x := cloneHeader(f.idx)
	if x.DeltaOps() != 0 {
		t.Fatalf("fresh overlay has %d ops", x.DeltaOps())
	}
	o := dataset.Object{ID: 1 << 20, X: 0.3, Y: 0.7, Vec: f.ds.Objects[2].Vec}
	if err := x.Insert(o); err != nil {
		t.Fatal(err)
	}
	if err := x.Insert(o); err == nil {
		t.Fatal("duplicate overlay insert accepted")
	}
	if err := x.Insert(f.ds.Objects[5]); err == nil {
		t.Fatal("duplicate of base ID accepted")
	}
	if err := x.Delete(424242); err == nil {
		t.Fatal("delete of unknown ID accepted")
	}
	if err := x.Delete(f.ds.Objects[5].ID); err != nil {
		t.Fatal(err)
	}
	if err := x.Delete(f.ds.Objects[5].ID); err == nil {
		t.Fatal("double delete accepted")
	}
	// Re-insert a tombstoned ID: allowed, lands in the overlay.
	if err := x.Insert(f.ds.Objects[5]); err != nil {
		t.Fatalf("re-insert after overlay delete: %v", err)
	}
	if got := x.DeltaOps(); got != 3 {
		t.Fatalf("DeltaOps = %d, want 3", got)
	}
	if x.Len() != 301 {
		t.Fatalf("Len = %d, want 301", x.Len())
	}
	n := 0
	x.ForEachLive(func(*dataset.Object) { n++ })
	if n != 301 {
		t.Fatalf("ForEachLive visited %d, want 301", n)
	}
	if live := x.collectLive(); len(live) != 301 {
		t.Fatalf("collectLive returned %d, want 301", len(live))
	}
	if err := x.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
