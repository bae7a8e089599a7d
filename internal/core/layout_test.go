package core

import (
	"bytes"
	"encoding/gob"
	"math/rand/v2"
	"testing"

	"repro/internal/dataset"
)

// requireClusterMajor asserts the state every base is in: invariants
// hold, checkLayout among them — every cluster a window of the arenas,
// its elements at consecutive storage positions — and the clusters tile
// the storage positions from 0 in directory order.
func requireClusterMajor(t *testing.T, ctx string, x *Index) {
	t.Helper()
	if err := x.CheckInvariants(); err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	next := 0
	for i, c := range x.clusters {
		if c.base != next {
			t.Fatalf("%s: cluster %d starts at %d, want %d", ctx, i, c.base, next)
		}
		next += len(c.elems)
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

// churn applies a deterministic stream of inserts, deletes and updates.
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
			upd, _ := x.Object(live[i])
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

// Every path that produces a base leaves it cluster-major, and writes
// never touch a base: after churn the written index still is, and so is
// its fold, its load and its rebuild.
func TestLayoutClusterMajorLifecycle(t *testing.T) {
	f := build(t, dataset.TwitterLike, 700, Config{Seed: 70})
	requireClusterMajor(t, "build", f.idx)
	requireClusterMajor(t, "load of a fresh save", saveLoad(t, f.idx))

	churn(t, f.idx, f.ds.Objects, 71, 300)
	requireClusterMajor(t, "after churn", f.idx)
	requireExact(t, "after churn", f.idx)

	folded, err := f.idx.Compact()
	if err != nil {
		t.Fatal(err)
	}
	requireClusterMajor(t, "fold after churn", folded)
	requireExact(t, "fold after churn", folded)
	if folded.rows() != folded.Len() {
		t.Fatalf("the fold kept %d storage positions for %d live rows", folded.rows(), folded.Len())
	}

	loaded := saveLoad(t, f.idx)
	requireClusterMajor(t, "load after churn", loaded)
	requireExact(t, "load after churn", loaded)
	nova := f.ds.Objects[0]
	nova.ID = 4_000_000
	if err := loaded.Insert(nova); err != nil {
		t.Fatal(err)
	}
	requireClusterMajor(t, "insert after load", loaded)

	fresh, err := f.idx.RebuildFresh()
	if err != nil {
		t.Fatal(err)
	}
	requireClusterMajor(t, "rebuild fresh", fresh)
	requireExact(t, "rebuild fresh", fresh)
}

// scrambledSave re-encodes a save with its storage positions shuffled
// and the rows of the IDs in gone flagged deleted: the same index in an
// order that is not cluster-major, with deleted slots scattered through
// it, which is what a file older code wrote after in-place deletes
// holds.
func scrambledSave(t *testing.T, x *Index, seed uint64, gone map[uint32]bool) *bytes.Buffer {
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
		s.Objects[p], s.Deleted[p] = g.Objects[old], g.Deleted[old] || gone[g.Objects[old].ID]
		copy(s.VecArena[p*g.Dim:(p+1)*g.Dim], g.VecArena[old*g.Dim:(old+1)*g.Dim])
		copy(s.ProjArena[p*g.M:(p+1)*g.M], g.ProjArena[old*g.M:(old+1)*g.M])
		s.SAssign[p], s.TAssign[p] = g.SAssign[old], g.TAssign[old]
	}
	var out bytes.Buffer
	if err := gob.NewEncoder(&out).Encode(&s); err != nil {
		t.Fatal(err)
	}
	return &out
}

// A file whose storage is not cluster-major — deleted slots scattered
// through it — loads, becomes cluster-major, and answers bit-identically
// to the linear scan and to the index it was saved from with the same
// objects deleted.
func TestLoadLaysOutLegacyOrder(t *testing.T) {
	f := build(t, dataset.TwitterLike, 600, Config{Seed: 73})
	gone := map[uint32]bool{}
	for i := 0; i < 60; i++ {
		gone[f.ds.Objects[i*7].ID] = true
	}
	loaded, _, err := Load(scrambledSave(t, f.idx, 74, gone))
	if err != nil {
		t.Fatal(err)
	}
	for id := range gone {
		if err := f.idx.Delete(id); err != nil {
			t.Fatal(err)
		}
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
