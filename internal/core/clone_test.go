package core

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/knn"
)

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
		_, lastT := f.idx.sides(f.idx.cells[len(f.idx.cells)-1])
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

// sidesShared reports whether both of c's side clusters hold live rows
// of other hybrid clusters: the grid's row c.s and column c.t list more
// than c.
func sidesShared(x *Index, c *hybrid) bool {
	var inS, inT int
	for _, cc := range x.clusters {
		if cc.s == c.s {
			inS += len(cc.elems)
		}
		if cc.t == c.t {
			inT += len(cc.elems)
		}
	}
	return inS > len(c.elems) && inT > len(c.elems)
}

// emptyAndRefillPair deletes every member of one small hybrid cluster of
// x and folds, checks that the fold cleared its grid cell and dropped
// the cluster, and re-inserts the objects and folds again, which must
// re-create the cell. It reports the side pair it cycled.
func emptyAndRefillPair(t *testing.T, ctx string, x *Index) (s, tt int) {
	t.Helper()
	fold := func(x *Index, what string) *Index {
		t.Helper()
		nx, err := x.Compact()
		if err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
		if err := nx.CheckInvariants(); err != nil {
			t.Fatalf("%s: %s: %v", ctx, what, err)
		}
		requireExact(t, ctx+" "+what, nx)
		return nx
	}
	// A few candidates: re-insertion assigns by nearest centroid, which
	// for an object on a Voronoi edge need not be the build's pair.
	for _, c := range x.clusters {
		if len(c.elems) > 3 || !sidesShared(x, c) {
			continue
		}
		cell := x.cell(c.s, c.t)
		var objs []dataset.Object
		for _, e := range c.elems {
			objs = append(objs, x.row(e.idx))
		}
		emptied := cloneHeader(x)
		for _, o := range objs {
			if err := emptied.Delete(o.ID); err != nil {
				t.Fatalf("%s: %v", ctx, err)
			}
		}
		emptied = fold(emptied, "emptied")
		if emptied.grid[cell] != nil || len(emptied.clusters) != len(x.clusters)-1 {
			t.Fatalf("%s: emptied pair (%d,%d) still has its cell or its cluster", ctx, c.s, c.t)
		}
		for _, o := range objs {
			if err := emptied.Insert(o); err != nil {
				t.Fatalf("%s: %v", ctx, err)
			}
		}
		refilled := fold(emptied, "refilled")
		if nc := refilled.grid[cell]; nc != nil && len(nc.elems) == len(objs) {
			return c.s, c.t
		}
	}
	t.Fatalf("%s: no emptied pair was re-created by re-inserting its objects", ctx)
	return 0, 0
}

// The grid follows the writes of an overlay child through its folds —
// deletes that empty a pair clear its cell at the fold, a later insert
// re-creates it at the next — while the parent snapshot, read by three
// goroutines the whole time, keeps its cells and its answers.
func TestGridEmptiedPairUnderReaders(t *testing.T) {
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

	// An overlay child only tombstones: the shared cell survives until
	// the fold, whose product has it cleared.
	child := cloneHeader(parent)
	var c *hybrid
	for _, cc := range parent.clusters {
		if len(cc.elems) <= 3 && sidesShared(parent, cc) {
			c = cc
			break
		}
	}
	if c == nil {
		t.Fatal("fixture has no small cluster")
	}
	for _, e := range c.elems {
		if err := child.Delete(parent.ids[e.idx]); err != nil {
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
