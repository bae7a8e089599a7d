package core

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/knn"
)

// Mutating a copy-on-write clone must never change what the parent
// snapshot returns: that isolation is the entire safety argument of the
// lock-free publication scheme in the public ShardedIndex.
func TestCloneForWriteIsolation(t *testing.T) {
	f := build(t, dataset.TwitterLike, 400, Config{Seed: 9})
	q := f.ds.Objects[17]
	before := f.idx.Search(&q, 10, 0.5, nil)
	wantLen := f.idx.Len()

	clone := f.idx.CloneForWrite()
	// A mix of every mutation kind, hitting many clusters.
	for i := 0; i < 60; i++ {
		o := f.ds.Objects[i%f.ds.Len()]
		o.ID = uint32(500000 + i)
		if err := clone.Insert(o); err != nil {
			t.Fatalf("clone insert %d: %v", i, err)
		}
	}
	for i := 0; i < 40; i++ {
		if err := clone.Delete(f.ds.Objects[i].ID); err != nil {
			t.Fatalf("clone delete %d: %v", i, err)
		}
	}

	if f.idx.Len() != wantLen {
		t.Fatalf("parent Len changed: %d, want %d", f.idx.Len(), wantLen)
	}
	after := f.idx.Search(&q, 10, 0.5, nil)
	sameResults(t, "parent search after clone mutation", before, after)
	if err := f.idx.CheckInvariants(); err != nil {
		t.Fatalf("parent invariants: %v", err)
	}
	if err := clone.CheckInvariants(); err != nil {
		t.Fatalf("clone invariants: %v", err)
	}
	if clone.Len() != wantLen+20 {
		t.Fatalf("clone Len = %d, want %d", clone.Len(), wantLen+20)
	}
	// Differential check: the clone answers exactly like a fresh build
	// over its live set would.
	cq := f.ds.Objects[99]
	got := clone.Search(&cq, 8, 0.5, nil)
	fresh, err := clone.RebuildFresh()
	if err != nil {
		t.Fatal(err)
	}
	want := fresh.Search(&cq, 8, 0.5, nil)
	sameResults(t, "clone vs rebuilt", want, got)
}

// Growing the clone past the shared arena's capacity must repoint only
// the clone's Vec headers; the parent keeps reading its own arena.
func TestCloneForWriteArenaGrowth(t *testing.T) {
	f := build(t, dataset.TwitterLike, 100, Config{Seed: 5})
	q := f.ds.Objects[3]
	before := f.idx.Search(&q, 5, 0.5, nil)

	clone := f.idx.CloneForWrite()
	// Insert far more rows than any spare arena capacity to force at
	// least one arena growth cycle inside the clone.
	for i := 0; i < 300; i++ {
		o := f.ds.Objects[i%f.ds.Len()]
		o.ID = uint32(700000 + i)
		if err := clone.Insert(o); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	after := f.idx.Search(&q, 5, 0.5, nil)
	sameResults(t, "parent search after arena growth", before, after)
	if err := clone.CheckInvariants(); err != nil {
		t.Fatalf("clone invariants: %v", err)
	}
	if err := f.idx.CheckInvariants(); err != nil {
		t.Fatalf("parent invariants: %v", err)
	}
}

// Chained clones (snapshot lineage A -> B -> C) must each stay frozen
// while their successors mutate — the ShardedIndex publishes exactly
// such a chain, one clone per write.
func TestCloneChain(t *testing.T) {
	f := build(t, dataset.YelpLike, 200, Config{Seed: 21})
	q := f.ds.Objects[42]
	gen := []*Index{f.idx}
	want := [][]knn.Result{f.idx.Search(&q, 6, 0.5, nil)}
	for g := 0; g < 4; g++ {
		next := gen[len(gen)-1].CloneForWrite()
		o := f.ds.Objects[g]
		o.ID = uint32(800000 + g)
		if err := next.Insert(o); err != nil {
			t.Fatal(err)
		}
		if err := next.Delete(f.ds.Objects[g].ID); err != nil {
			t.Fatal(err)
		}
		gen = append(gen, next)
		want = append(want, next.Search(&q, 6, 0.5, nil))
	}
	// Every generation still answers exactly as it did when it was the
	// head of the chain.
	for g, idx := range gen {
		sameResults(t, "generation", want[g], idx.Search(&q, 6, 0.5, nil))
		if err := idx.CheckInvariants(); err != nil {
			t.Fatalf("generation %d invariants: %v", g, err)
		}
	}
}

// Regression: Insert after deleting EVERY object must fall back to a
// cluster whose centroid was valid at build time, not blindly to
// cluster 0 (whose centroid may be meaningless if it never had
// members). The index must stay searchable throughout.
func TestInsertAfterTotalDeletion(t *testing.T) {
	f := build(t, dataset.TwitterLike, 60, Config{Seed: 13})
	for _, o := range f.ds.Objects {
		if err := f.idx.Delete(o.ID); err != nil {
			t.Fatalf("delete %d: %v", o.ID, err)
		}
	}
	if f.idx.Len() != 0 {
		t.Fatalf("Len = %d after total deletion", f.idx.Len())
	}
	// Re-insert everything; the first insert exercises the all-empty
	// fallback, later ones the normal populated path.
	for i, o := range f.ds.Objects {
		o.ID = uint32(900000 + i)
		if err := f.idx.Insert(o); err != nil {
			t.Fatalf("re-insert %d: %v", i, err)
		}
		// The fallback must have picked a build-time-valid cluster.
		lastT := f.idx.tAssign[len(f.idx.tAssign)-1]
		if !f.idx.tValid[lastT] {
			t.Fatalf("insert %d assigned to invalid semantic cluster %d", i, lastT)
		}
	}
	if err := f.idx.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	q := f.ds.Objects[7]
	rs := f.idx.Search(&q, 5, 0.5, nil)
	if len(rs) != 5 {
		t.Fatalf("search after refill returned %d results", len(rs))
	}
	// Differential against exact scan over the re-inserted set.
	fresh, err := f.idx.RebuildFresh()
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "refilled vs rebuilt", fresh.Search(&q, 5, 0.5, nil), rs)
}

// RebuildFresh must leave the receiver untouched (including its metric
// space, which a plain Build would renormalize in place).
func TestRebuildFreshIsolation(t *testing.T) {
	f := build(t, dataset.TwitterLike, 300, Config{Seed: 3})
	for i := 0; i < 50; i++ {
		if err := f.idx.Delete(f.ds.Objects[i].ID); err != nil {
			t.Fatal(err)
		}
	}
	q := f.ds.Objects[222]
	before := f.idx.Search(&q, 10, 0.5, nil)
	spaceBefore := *f.idx.space

	fresh, err := f.idx.RebuildFresh()
	if err != nil {
		t.Fatal(err)
	}
	if *f.idx.space != spaceBefore {
		t.Fatal("RebuildFresh mutated the receiver's metric space")
	}
	sameResults(t, "receiver after RebuildFresh", before, f.idx.Search(&q, 10, 0.5, nil))
	if fresh.Len() != f.idx.Len() {
		t.Fatalf("fresh Len = %d, want %d", fresh.Len(), f.idx.Len())
	}
	if err := fresh.CheckInvariants(); err != nil {
		t.Fatalf("fresh invariants: %v", err)
	}
	if fresh.UpdatesSinceBuild != 0 {
		t.Fatalf("fresh UpdatesSinceBuild = %d", fresh.UpdatesSinceBuild)
	}
}

// emptyAndRefillPair deletes every member of one small hybrid cluster of
// x, checks that its grid cell is cleared and the cluster dropped, and
// re-inserts the objects, which must re-create the cell. It reports the
// side pair it cycled.
func emptyAndRefillPair(t *testing.T, ctx string, x *Index) (s, tt int) {
	t.Helper()
	// A few candidates: re-insertion assigns by nearest centroid, which
	// for an object on a Voronoi edge need not be the build's pair.
	for _, c := range slices.Clone(x.clusters) {
		if len(c.members) > 3 || len(x.sMembers[c.s]) == len(c.members) || len(x.tMembers[c.t]) == len(c.members) {
			continue
		}
		cell := x.cell(c.s, c.t)
		var objs []dataset.Object
		for _, m := range c.members {
			objs = append(objs, x.objects[m.idx])
		}
		before := len(x.clusters)
		for _, o := range objs {
			if err := x.Delete(o.ID); err != nil {
				t.Fatalf("%s: %v", ctx, err)
			}
		}
		if x.grid[cell] != nil || len(x.clusters) != before-1 {
			t.Fatalf("%s: emptied pair (%d,%d) still has its cell or its cluster", ctx, c.s, c.t)
		}
		if err := x.CheckInvariants(); err != nil {
			t.Fatalf("%s: after emptying (%d,%d): %v", ctx, c.s, c.t, err)
		}
		requireExact(t, ctx+" emptied", x)
		for _, o := range objs {
			if err := x.Insert(o); err != nil {
				t.Fatalf("%s: %v", ctx, err)
			}
		}
		if err := x.CheckInvariants(); err != nil {
			t.Fatalf("%s: after refilling (%d,%d): %v", ctx, c.s, c.t, err)
		}
		requireExact(t, ctx+" refilled", x)
		if nc := x.grid[cell]; nc != nil && nc != c && len(nc.members) == len(objs) {
			return c.s, c.t
		}
	}
	t.Fatalf("%s: no emptied pair was re-created by re-inserting its objects", ctx)
	return 0, 0
}

// The grid follows in-place maintenance on a flat index and on both
// kinds of write clone — a delete that empties a pair clears its cell, a
// later insert re-creates it — while the parent snapshot, read by three
// goroutines the whole time, keeps its cells and its answers.
func TestGridEmptiedPairUnderReaders(t *testing.T) {
	emptyAndRefillPair(t, "flat", build(t, dataset.TwitterLike, 500, Config{Seed: 77}).idx)

	f := build(t, dataset.TwitterLike, 500, Config{Seed: 77})
	parent := f.idx
	cells := slices.Clone(parent.grid)
	queries := f.ds.SampleQueries(12, 5)
	want := make([][]knn.Result, len(queries))
	for i := range queries {
		want[i] = parent.Search(&queries[i], 10, 0.5, nil)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer wg.Wait()
	defer close(stop)
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				qi := i % len(queries)
				if got := parent.Search(&queries[qi], 10, 0.5, nil); !slices.Equal(got, want[qi]) {
					t.Errorf("parent answer to query %d changed while a child mutated", qi)
					return
				}
			}
		}(r)
	}

	emptyAndRefillPair(t, "eager clone", parent.CloneForWrite())

	// An overlay child only tombstones: the shared cell survives until
	// the fold, whose product has it cleared.
	child := parent.CloneWithDelta()
	var c *hybrid
	for _, cc := range parent.clusters {
		if len(cc.members) <= 3 && len(parent.sMembers[cc.s]) > len(cc.members) && len(parent.tMembers[cc.t]) > len(cc.members) {
			c = cc
			break
		}
	}
	if c == nil {
		t.Fatal("fixture has no small cluster")
	}
	for _, m := range c.members {
		if err := child.Delete(parent.objects[m.idx].ID); err != nil {
			t.Fatal(err)
		}
	}
	if child.grid[child.cell(c.s, c.t)] != c {
		t.Fatal("an overlay delete wrote the shared grid")
	}
	requireExact(t, "overlay child", child)
	folded, err := child.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if folded.grid[folded.cell(c.s, c.t)] != nil {
		t.Fatalf("the fold kept the cell of emptied pair (%d,%d)", c.s, c.t)
	}
	if err := folded.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	requireExact(t, "folded child", folded)
	emptyAndRefillPair(t, "folded child", folded)

	if !slices.Equal(cells, parent.grid) {
		t.Fatal("a child's maintenance changed the parent's grid cells")
	}
	if err := parent.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
