package core

import (
	"bytes"
	"encoding/gob"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/knn"
)

// gatheredClusters counts the clusters whose scan block is a private
// copy instead of a window of the arenas.
func gatheredClusters(x *Index) int {
	n := 0
	for _, c := range x.clusters {
		if c.base < 0 {
			n++
		}
	}
	return n
}

// requireClusterMajor asserts the state Build, Rebuild, RebuildFresh and
// Load promise: invariants hold (checkLayout among them) and every
// cluster reads the arenas directly.
func requireClusterMajor(t *testing.T, ctx string, x *Index) {
	t.Helper()
	if err := x.CheckInvariants(); err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	if g := gatheredClusters(x); g != 0 {
		t.Fatalf("%s: %d of %d clusters carry a gathered block, want 0", ctx, g, len(x.clusters))
	}
}

// requireExact compares exact search against a linear scan of the live
// objects, ID for ID.
func requireExact(t *testing.T, ctx string, x *Index) {
	t.Helper()
	sc, live := liveScanner(x)
	for qi := 0; qi < 8; qi++ {
		q := live.Objects[(qi*61+7)%live.Len()]
		q.X, q.Y = clamp01(q.X+0.013), clamp01(q.Y-0.021)
		for _, lambda := range []float64{0.2, 0.5, 1} {
			identicalResults(t, ctx, sc.Search(&q, 10, lambda, nil), x.Search(&q, 10, lambda, nil))
		}
	}
}

// churn applies a deterministic stream of in-place inserts, deletes and
// updates.
func churn(t *testing.T, x *Index, base []dataset.Object, seed uint64, steps int) {
	t.Helper()
	pool, err := dataset.Generate(dataset.GenConfig{Kind: dataset.YelpLike, Size: steps, Dim: x.dim, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(seed, 1))
	live := make([]uint32, len(base))
	for i := range base {
		live[i] = base[i].ID
	}
	for step := 0; step < steps; step++ {
		i := rng.IntN(len(live))
		switch rng.IntN(3) {
		case 0:
			o := pool.Objects[step]
			o.ID = uint32(3_000_000 + step)
			if err := x.Insert(o); err != nil {
				t.Fatal(err)
			}
			live = append(live, o.ID)
		case 1:
			if err := x.Delete(live[i]); err != nil {
				t.Fatal(err)
			}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		default:
			o, _ := x.Object(live[i])
			upd := *o
			upd.X, upd.Y = clamp01(upd.X+rng.NormFloat64()*0.05), clamp01(upd.Y+rng.NormFloat64()*0.05)
			if err := x.Update(upd); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func saveLoad(t *testing.T, x *Index) *Index {
	t.Helper()
	var buf bytes.Buffer
	if err := x.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, _, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return loaded
}

// Every path that produces a fresh index leaves it cluster-major;
// in-place maintenance degrades only the clusters it touches, and the
// next Load, Rebuild or RebuildFresh restores the rest.
func TestLayoutClusterMajorLifecycle(t *testing.T) {
	f := build(t, dataset.TwitterLike, 700, Config{Seed: 70})
	requireClusterMajor(t, "build", f.idx)
	for i, c := range f.idx.clusters {
		for j, e := range c.elems {
			if int(e.idx) != c.base+j {
				t.Fatalf("cluster %d elem %d at %d, base %d", i, j, e.idx, c.base)
			}
		}
	}
	requireClusterMajor(t, "load of a fresh save", saveLoad(t, f.idx))

	churn(t, f.idx, f.ds.Objects, 71, 300)
	if err := f.idx.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	g := gatheredClusters(f.idx)
	if g == 0 || g == len(f.idx.clusters) {
		t.Fatalf("after churn %d of %d clusters gathered, want some but not all", g, len(f.idx.clusters))
	}
	requireExact(t, "after churn", f.idx)

	loaded := saveLoad(t, f.idx)
	requireClusterMajor(t, "load after churn", loaded)
	requireExact(t, "load after churn", loaded)
	// Deleted slots sort behind every live one.
	for i := range loaded.objects {
		if loaded.deleted.get(uint32(i)) != (i >= loaded.Len()) {
			t.Fatalf("slot %d of %d: deleted=%v with %d live", i, len(loaded.objects), i < loaded.Len(), loaded.Len())
		}
	}
	nova := f.ds.Objects[0]
	nova.ID = 4_000_000
	if err := loaded.Insert(nova); err != nil {
		t.Fatal(err)
	}
	if err := loaded.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	fresh, err := f.idx.RebuildFresh()
	if err != nil {
		t.Fatal(err)
	}
	requireClusterMajor(t, "rebuild fresh", fresh)
	requireExact(t, "rebuild fresh", fresh)
	if err := f.idx.Rebuild(); err != nil {
		t.Fatal(err)
	}
	requireClusterMajor(t, "rebuild", f.idx)
	requireExact(t, "rebuild", f.idx)
}

// scrambledSave re-encodes a save with its storage positions shuffled:
// the same index in an order that is not cluster-major, which is what a
// file written before the layout pass existed holds (there, input order).
func scrambledSave(t *testing.T, x *Index, seed uint64) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	if err := x.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var g gobIndex
	if err := gob.NewDecoder(&buf).Decode(&g); err != nil {
		t.Fatal(err)
	}
	n := len(g.Objects)
	perm := rand.New(rand.NewPCG(seed, 2)).Perm(n) // old → new
	s := g
	s.Objects = make([]dataset.Object, n)
	s.Deleted = make([]bool, n)
	s.VecArena = make([]float32, len(g.VecArena))
	s.ProjArena = make([]float32, len(g.ProjArena))
	s.SAssign, s.TAssign = make([]int, n), make([]int, n)
	for old, p := range perm {
		s.Objects[p], s.Deleted[p] = g.Objects[old], g.Deleted[old]
		copy(s.VecArena[p*g.Dim:(p+1)*g.Dim], g.VecArena[old*g.Dim:(old+1)*g.Dim])
		copy(s.ProjArena[p*g.M:(p+1)*g.M], g.ProjArena[old*g.M:(old+1)*g.M])
		s.SAssign[p], s.TAssign[p] = g.SAssign[old], g.TAssign[old]
	}
	for _, lists := range [2][][]uint32{s.SMembers, s.TMembers} {
		for _, list := range lists {
			for i, old := range list {
				list[i] = uint32(perm[old])
			}
		}
	}
	for ci := range s.Clusters {
		for mi := range s.Clusters[ci].Members {
			s.Clusters[ci].Members[mi].Idx = uint32(perm[s.Clusters[ci].Members[mi].Idx])
		}
	}
	var out bytes.Buffer
	if err := gob.NewEncoder(&out).Encode(&s); err != nil {
		t.Fatal(err)
	}
	return &out
}

// A file whose storage is not cluster-major — deleted slots scattered
// through it — loads, becomes cluster-major, and answers bit-identically
// to the linear scan and to the index it was saved from; a file that
// lists one position twice is refused.
func TestLoadLaysOutLegacyOrder(t *testing.T) {
	f := build(t, dataset.TwitterLike, 600, Config{Seed: 73})
	for i := 0; i < 60; i++ {
		if err := f.idx.Delete(f.ds.Objects[i*7].ID); err != nil {
			t.Fatal(err)
		}
	}
	loaded, _, err := Load(scrambledSave(t, f.idx, 74))
	if err != nil {
		t.Fatal(err)
	}
	requireClusterMajor(t, "scrambled load", loaded)
	if loaded.Len() != f.idx.Len() {
		t.Fatalf("loaded %d live objects, want %d", loaded.Len(), f.idx.Len())
	}
	requireExact(t, "scrambled load", loaded)
	for qi := 0; qi < 6; qi++ {
		q := f.ds.Objects[(qi*83+3)%f.ds.Len()]
		identicalResults(t, "scrambled vs source", f.idx.Search(&q, 10, 0.5, nil), loaded.Search(&q, 10, 0.5, nil))
		identicalResults(t, "scrambled vs source approx", f.idx.SearchApprox(&q, 10, 0.5, nil), loaded.SearchApprox(&q, 10, 0.5, nil))
	}
	for i := 0; i < 60; i++ {
		if _, ok := loaded.Object(f.ds.Objects[i*7].ID); ok {
			t.Fatalf("deleted object %d resurrected", f.ds.Objects[i*7].ID)
		}
	}

	var g gobIndex
	if err := gob.NewDecoder(scrambledSave(t, f.idx, 75)).Decode(&g); err != nil {
		t.Fatal(err)
	}
	g.Clusters[0].Members[0].Idx = g.Clusters[0].Members[1].Idx
	var bad bytes.Buffer
	if err := gob.NewEncoder(&bad).Encode(&g); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Load(&bad); err == nil {
		t.Fatal("expected an error for a file listing one position twice")
	}
}

// blockCopy deep-copies every cluster's scan block as x reads it.
func blockCopy(x *Index) []clusterBlock {
	out := make([]clusterBlock, len(x.clusters))
	for i, c := range x.clusters {
		var win clusterBlock
		b := x.block(&win, c)
		out[i] = clusterBlock{
			xs: slices.Clone(b.xs), ys: slices.Clone(b.ys),
			aid: slices.Clone(b.aid), adist: slices.Clone(b.adist),
		}
	}
	return out
}

func sameBlocks(a, b []clusterBlock) bool {
	return slices.EqualFunc(a, b, func(p, q clusterBlock) bool {
		return slices.Equal(p.xs, q.xs) && slices.Equal(p.ys, q.ys) &&
			slices.Equal(p.aid, q.aid) && slices.Equal(p.adist, q.adist)
	})
}

// A published parent keeps its answers and its block bytes while a COW
// clone inserts into clusters the parent reads straight from the arenas
// and grows until every arena has been reallocated; readers run against
// the parent the whole time (the race detector checks the sharing).
func TestLayoutCloneGrowsUnderReaders(t *testing.T) {
	f := build(t, dataset.TwitterLike, 500, Config{Seed: 76})
	parent := f.idx
	queries := f.ds.SampleQueries(12, 5)
	want := make([][]knn.Result, len(queries))
	for i := range queries {
		want[i] = parent.Search(&queries[i], 10, 0.5, nil)
	}
	blocks := blockCopy(parent)

	stop := make(chan struct{})
	var wg sync.WaitGroup
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
					t.Errorf("parent answer to query %d changed while the clone grew", qi)
					return
				}
			}
		}(r)
	}

	clone := parent.CloneForWrite()
	for i := 0; i < 2*parent.Len(); i++ {
		o := f.ds.Objects[i%f.ds.Len()] // lands in the cluster of an existing object
		o.ID = uint32(5_000_000 + i)
		if err := clone.Insert(o); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()

	if &clone.vecArena[0] == &parent.vecArena[0] || &clone.projArena[0] == &parent.projArena[0] ||
		&clone.xArena[0] == &parent.xArena[0] || &clone.yArena[0] == &parent.yArena[0] ||
		&clone.anchors.id[0] == &parent.anchors.id[0] || &clone.anchors.dist[0] == &parent.anchors.dist[0] {
		t.Fatal("the clone did not outgrow every arena")
	}
	if !sameBlocks(blocks, blockCopy(parent)) {
		t.Fatal("parent block bytes changed under the clone's growth")
	}
	requireClusterMajor(t, "parent after clone growth", parent)
	if err := clone.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if gatheredClusters(clone) == 0 {
		t.Fatal("clone inserted into arena-backed clusters but none was gathered")
	}
	requireExact(t, "grown clone", clone)
	requireScratchesUnpinned(t, clone)
}

// requireScratchesUnpinned drains the scratch pool x shares with every
// snapshot cloned from or into it and checks that no pooled scratch
// still points into an index: the scan block and the row gate window
// the arenas of whichever snapshot last used the scratch, and a pooled
// scratch holding on to them would pin a superseded backing array for
// as long as the pool keeps it.
func requireScratchesUnpinned(t *testing.T, x *Index) {
	t.Helper()
	for i := 0; i < 16; i++ {
		sc := x.scratchPool.Get().(*searchScratch)
		b, g := &sc.blk, &sc.gate
		if b.xs != nil || b.ys != nil || b.aid != nil || b.adist != nil ||
			g.aid != nil || g.adist != nil || g.dq != nil || sc.front.x != nil {
			t.Fatalf("pooled scratch %d still points into an index", i)
		}
	}
}
