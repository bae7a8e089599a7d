package core

import (
	"math/rand/v2"
	"testing"

	"repro/internal/dataset"
	"repro/internal/scan"
)

// liveScanner builds a scanner over the index's current live objects so
// differential checks stay valid after maintenance.
// rebuilt is x.RebuildFresh, failing the test on an error.
func rebuilt(t *testing.T, x *Index) *Index {
	t.Helper()
	fresh, err := x.RebuildFresh()
	if err != nil {
		t.Fatal(err)
	}
	return fresh
}

func liveScanner(idx *Index) (*scan.Scanner, *dataset.Dataset) {
	ds := &dataset.Dataset{Objects: idx.collectLive(), Dim: idx.pcaModel.N()}
	return scan.New(ds, idx.space), ds
}

func TestInsertBasics(t *testing.T) {
	f := build(t, dataset.TwitterLike, 400, Config{Seed: 20})
	extra, _ := dataset.Generate(dataset.GenConfig{Kind: dataset.TwitterLike, Size: 50, Dim: 32, Seed: 99})
	for i := range extra.Objects {
		o := extra.Objects[i]
		o.ID += 10000 // avoid collisions
		if err := f.idx.Insert(o); err != nil {
			t.Fatal(err)
		}
	}
	if f.idx.Len() != 450 {
		t.Fatalf("Len = %d, want 450", f.idx.Len())
	}
	if err := f.idx.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if f.idx.UpdatesSinceBuild != 50 {
		t.Fatalf("UpdatesSinceBuild = %d", f.idx.UpdatesSinceBuild)
	}
}

func TestInsertRejectsDuplicateAndBadDim(t *testing.T) {
	f := build(t, dataset.TwitterLike, 100, Config{Seed: 21})
	if err := f.idx.Insert(f.ds.Objects[0]); err == nil {
		t.Fatal("duplicate insert should fail")
	}
	bad := dataset.Object{ID: 5000, Vec: []float32{1, 2}}
	if err := f.idx.Insert(bad); err == nil {
		t.Fatal("wrong-dimension insert should fail")
	}
}

func TestCSSIExactAfterInserts(t *testing.T) {
	f := build(t, dataset.TwitterLike, 600, Config{Seed: 22})
	extra, _ := dataset.Generate(dataset.GenConfig{Kind: dataset.TwitterLike, Size: 300, Dim: 32, Seed: 123})
	for i := range extra.Objects {
		o := extra.Objects[i]
		o.ID += 10000
		if err := f.idx.Insert(o); err != nil {
			t.Fatal(err)
		}
	}
	sc, liveDs := liveScanner(f.idx)
	for qi := 0; qi < 8; qi++ {
		q := liveDs.Objects[(qi*157+1)%liveDs.Len()]
		want := sc.Search(&q, 10, 0.5, nil)
		got := f.idx.Search(&q, 10, 0.5, nil)
		sameResults(t, "after inserts", want, got)
	}
	if err := f.idx.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteBasics(t *testing.T) {
	f := build(t, dataset.TwitterLike, 300, Config{Seed: 23})
	if err := f.idx.Delete(f.ds.Objects[10].ID); err != nil {
		t.Fatal(err)
	}
	if f.idx.Len() != 299 {
		t.Fatalf("Len = %d", f.idx.Len())
	}
	if err := f.idx.Delete(f.ds.Objects[10].ID); err == nil {
		t.Fatal("double delete should fail")
	}
	if err := f.idx.Delete(999999); err == nil {
		t.Fatal("delete of unknown ID should fail")
	}
	if err := f.idx.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The deleted object must never appear in results.
	got := f.idx.Search(&f.ds.Objects[10], 5, 0.5, nil)
	for _, r := range got {
		if r.ID == f.ds.Objects[10].ID {
			t.Fatal("deleted object returned by Search")
		}
	}
}

func TestCSSIExactAfterDeletes(t *testing.T) {
	f := build(t, dataset.TwitterLike, 700, Config{Seed: 24})
	rng := rand.New(rand.NewPCG(1, 1))
	deleted := make(map[uint32]bool)
	for len(deleted) < 200 {
		id := f.ds.Objects[rng.IntN(f.ds.Len())].ID
		if deleted[id] {
			continue
		}
		if err := f.idx.Delete(id); err != nil {
			t.Fatal(err)
		}
		deleted[id] = true
	}
	sc, liveDs := liveScanner(f.idx)
	for qi := 0; qi < 8; qi++ {
		q := liveDs.Objects[(qi*101+9)%liveDs.Len()]
		want := sc.Search(&q, 10, 0.4, nil)
		got := f.idx.Search(&q, 10, 0.4, nil)
		sameResults(t, "after deletes", want, got)
	}
	if err := f.idx.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateMovesObject(t *testing.T) {
	f := build(t, dataset.TwitterLike, 300, Config{Seed: 25})
	o := f.ds.Objects[42]
	o.X, o.Y = 1-o.X, 1-o.Y // jump across the space
	if err := f.idx.Update(o); err != nil {
		t.Fatal(err)
	}
	if f.idx.Len() != 300 {
		t.Fatalf("Len = %d after update", f.idx.Len())
	}
	got, ok := f.idx.Object(o.ID)
	if !ok || got.X != o.X {
		t.Fatal("update did not take effect")
	}
	if err := f.idx.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Exactness after the update.
	sc, _ := liveScanner(f.idx)
	want := sc.Search(&o, 5, 0.5, nil)
	res := f.idx.Search(&o, 5, 0.5, nil)
	sameResults(t, "after update", want, res)
}

func TestUpdateUnknownIDFails(t *testing.T) {
	f := build(t, dataset.TwitterLike, 50, Config{Seed: 26})
	o := f.ds.Objects[0]
	o.ID = 777777
	if err := f.idx.Update(o); err == nil {
		t.Fatal("update of unknown ID should fail")
	}
}

// Randomized maintenance stream: interleave inserts, deletes and updates,
// then verify invariants and exactness. This is the §6.2 robustness claim.
func TestRandomMaintenanceStream(t *testing.T) {
	f := build(t, dataset.TwitterLike, 500, Config{Seed: 27})
	pool, _ := dataset.Generate(dataset.GenConfig{Kind: dataset.YelpLike, Size: 400, Dim: 32, Seed: 321})
	rng := rand.New(rand.NewPCG(9, 9))
	liveIDs := make([]uint32, 0, 900)
	for i := range f.ds.Objects {
		liveIDs = append(liveIDs, f.ds.Objects[i].ID)
	}
	nextPool := 0
	for step := 0; step < 600; step++ {
		switch op := rng.IntN(3); {
		case op == 0 && nextPool < len(pool.Objects): // insert
			o := pool.Objects[nextPool]
			o.ID += 50000
			nextPool++
			if err := f.idx.Insert(o); err != nil {
				t.Fatalf("step %d insert: %v", step, err)
			}
			liveIDs = append(liveIDs, o.ID)
		case op == 1 && len(liveIDs) > 50: // delete
			i := rng.IntN(len(liveIDs))
			if err := f.idx.Delete(liveIDs[i]); err != nil {
				t.Fatalf("step %d delete: %v", step, err)
			}
			liveIDs[i] = liveIDs[len(liveIDs)-1]
			liveIDs = liveIDs[:len(liveIDs)-1]
		default: // update (perturb location)
			i := rng.IntN(len(liveIDs))
			o, ok := f.idx.Object(liveIDs[i])
			if !ok {
				t.Fatalf("step %d: live ID %d not found", step, liveIDs[i])
			}
			upd := o
			upd.X = clamp01(upd.X + rng.NormFloat64()*0.05)
			upd.Y = clamp01(upd.Y + rng.NormFloat64()*0.05)
			if err := f.idx.Update(upd); err != nil {
				t.Fatalf("step %d update: %v", step, err)
			}
		}
	}
	if err := f.idx.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	sc, liveDs := liveScanner(f.idx)
	if liveDs.Len() != f.idx.Len() {
		t.Fatalf("live mismatch: %d vs %d", liveDs.Len(), f.idx.Len())
	}
	for qi := 0; qi < 6; qi++ {
		q := liveDs.Objects[(qi*67+13)%liveDs.Len()]
		want := sc.Search(&q, 10, 0.5, nil)
		got := f.idx.Search(&q, 10, 0.5, nil)
		sameResults(t, "after stream", want, got)
	}
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

func TestRebuild(t *testing.T) {
	f := build(t, dataset.TwitterLike, 400, Config{Seed: 28})
	extra, _ := dataset.Generate(dataset.GenConfig{Kind: dataset.TwitterLike, Size: 200, Dim: 32, Seed: 55})
	for i := range extra.Objects {
		o := extra.Objects[i]
		o.ID += 20000
		if err := f.idx.Insert(o); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		if err := f.idx.Delete(f.ds.Objects[i].ID); err != nil {
			t.Fatal(err)
		}
	}
	f.idx = rebuilt(t, f.idx)
	if f.idx.UpdatesSinceBuild != 0 {
		t.Fatalf("UpdatesSinceBuild = %d after rebuild", f.idx.UpdatesSinceBuild)
	}
	if f.idx.Len() != 500 {
		t.Fatalf("Len = %d after rebuild, want 500", f.idx.Len())
	}
	requireClusterMajor(t, "rebuild", f.idx)
	sc, liveDs := liveScanner(f.idx)
	q := liveDs.Objects[3]
	sameResults(t, "after rebuild", sc.Search(&q, 10, 0.5, nil), f.idx.Search(&q, 10, 0.5, nil))
}

// Zero cluster counts are derived at every build from the objects it
// indexes, not frozen at the first: an index grown 4× by inserts
// rebuilds at the rule's count for 4n — in place, off to the side, and
// after a save and reload — while explicit counts survive verbatim.
func TestRebuildRederivesClusterCounts(t *testing.T) {
	const n = 900
	f := build(t, dataset.TwitterLike, n, Config{Seed: 34})
	if got, want := f.idx.Config().Ks, clusterCount(n, 0.3); got != want || f.idx.Config().Kt != want {
		t.Fatalf("built with %d/%d clusters, want %d", got, f.idx.Config().Kt, want)
	}
	explicit := build(t, dataset.TwitterLike, n, Config{Seed: 34, Ks: 5, Kt: 6})
	extra, err := dataset.Generate(dataset.GenConfig{Kind: dataset.TwitterLike, Size: 3 * n, Dim: 32, Seed: 35})
	if err != nil {
		t.Fatal(err)
	}
	for i := range extra.Objects {
		o := extra.Objects[i]
		o.ID += 100_000
		for _, x := range []*Index{f.idx, explicit.idx} {
			if err := x.Insert(o); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := clusterCount(4*n, 0.3)
	loaded := saveLoad(t, f.idx)
	fresh, err := f.idx.RebuildFresh()
	if err != nil {
		t.Fatal(err)
	}
	f.idx, loaded, explicit.idx = rebuilt(t, f.idx), rebuilt(t, loaded), rebuilt(t, explicit.idx)
	for name, x := range map[string]*Index{"rebuilt": f.idx, "rebuilt fresh": fresh, "reloaded and rebuilt": loaded} {
		if cfg := x.Config(); cfg.Ks != want || cfg.Kt != want || len(x.sCentX) != want {
			t.Fatalf("%s: %d/%d clusters at %d objects, want %d", name, cfg.Ks, cfg.Kt, x.Len(), want)
		}
		if x.cfg.Ks != 0 || x.cfg.Kt != 0 {
			t.Fatalf("%s: stored counts %d/%d, want the caller's zeros", name, x.cfg.Ks, x.cfg.Kt)
		}
	}
	if cfg := explicit.idx.Config(); cfg.Ks != 5 || cfg.Kt != 6 {
		t.Fatalf("explicit counts after rebuild: %d/%d, want 5/6", cfg.Ks, cfg.Kt)
	}
	requireExact(t, "rebuilt at 4n", f.idx)
}

// Radius bookkeeping (§6.2's infrequent case): once the farthest member
// of a spatial cluster is deleted, the fold shrinks the radius to the
// next farthest live member's distance; the overlay alone leaves it.
func TestDeleteShrinksRadius(t *testing.T) {
	f := build(t, dataset.TwitterLike, 300, Config{Ks: 4, Kt: 4, Seed: 29})
	// Find the two farthest members of spatial cluster 0.
	s := 0
	var farIdx uint32
	far, next := -1.0, -1.0
	for i := range f.idx.rows() {
		mi := uint32(i)
		if rs, _ := f.idx.sides(f.idx.cells[mi]); rs != s {
			continue
		}
		switch d := f.idx.spatialToCent(mi, s); {
		case d > far:
			far, next, farIdx = d, far, mi
		case d > next:
			next = d
		}
	}
	if next >= far || f.idx.sRad[s] != far {
		t.Fatalf("radius %v, farthest members at %v and %v: want a unique farthest", f.idx.sRad[s], far, next)
	}
	if err := f.idx.Delete(f.idx.ids[farIdx]); err != nil {
		t.Fatal(err)
	}
	if err := f.idx.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if f.idx.sRad[s] != far {
		t.Fatalf("an overlay delete moved the base radius: %v -> %v", far, f.idx.sRad[s])
	}
	folded, err := f.idx.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if folded.sRad[s] != next {
		t.Fatalf("folded radius %v, want the next farthest member's %v", folded.sRad[s], next)
	}
	if err := folded.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// CSSIA stays reasonable after maintenance (Table 5's claim: error and
// cost roughly unchanged after updates).
func TestCSSIAAfterUpdates(t *testing.T) {
	f := build(t, dataset.TwitterLike, 1000, Config{Seed: 30})
	rng := rand.New(rand.NewPCG(4, 2))
	for step := 0; step < 300; step++ {
		i := rng.IntN(f.ds.Len())
		o, ok := f.idx.Object(f.ds.Objects[i].ID)
		if !ok {
			continue
		}
		upd := o
		upd.X = clamp01(upd.X + rng.NormFloat64()*0.02)
		if err := f.idx.Update(upd); err != nil {
			t.Fatal(err)
		}
	}
	sc, liveDs := liveScanner(f.idx)
	var totalErr float64
	const queries = 20
	for qi := 0; qi < queries; qi++ {
		q := liveDs.Objects[(qi*71+3)%liveDs.Len()]
		exact := sc.Search(&q, 50, 0.5, nil)
		approx := f.idx.SearchApprox(&q, 50, 0.5, nil)
		var missing int
		got := make(map[uint32]bool)
		for _, r := range approx {
			got[r.ID] = true
		}
		for _, r := range exact {
			if !got[r.ID] {
				missing++
			}
		}
		totalErr += float64(missing) / float64(len(exact))
	}
	if avg := totalErr / queries; avg > 0.08 {
		t.Fatalf("CSSIA error after updates %.4f too high", avg)
	}
	// The updates sit in f.idx's overlay, tombstones on base rows among
	// them: every counted read still charges each live row once, on the
	// index itself and on a clone of it.
	if f.idx.DeltaOps() == 0 {
		t.Fatal("the updates buffered no overlay ops")
	}
	for _, x := range []*Index{f.idx, cloneHeader(f.idx)} {
		for qi := 0; qi < 4; qi++ {
			for _, lambda := range []float64{0, 0.5, 1} {
				requirePruningIdentity(t, "after updates", []*Index{x}, &liveDs.Objects[qi*97], 10, lambda)
			}
		}
	}
}

// DriftRatio: in-distribution inserts rarely expand radii; alien inserts
// (shifted far outside the built distribution) almost always do.
func TestDriftRatio(t *testing.T) {
	f := build(t, dataset.TwitterLike, 500, Config{Seed: 33})
	if f.idx.DriftRatio() != 0 {
		t.Fatal("DriftRatio should be 0 before inserts")
	}
	inDist, _ := dataset.Generate(dataset.GenConfig{Kind: dataset.TwitterLike, Size: 200, Dim: 32, Seed: 51})
	for i := range inDist.Objects {
		o := inDist.Objects[i]
		o.ID += 30000
		if err := f.idx.Insert(o); err != nil {
			t.Fatal(err)
		}
	}
	inRatio := f.idx.DriftRatio()

	g := build(t, dataset.TwitterLike, 500, Config{Seed: 33})
	for i := range inDist.Objects {
		o := inDist.Objects[i]
		o.ID += 60000
		// Push the semantic vectors far outside the built distribution.
		o.Vec = make([]float32, len(o.Vec))
		for j := range o.Vec {
			o.Vec[j] = 50
		}
		if err := g.idx.Insert(o); err != nil {
			t.Fatal(err)
		}
	}
	alienRatio := g.idx.DriftRatio()
	if alienRatio <= inRatio {
		t.Fatalf("alien drift %v should exceed in-distribution drift %v", alienRatio, inRatio)
	}
	if alienRatio < 0.9 {
		t.Fatalf("alien inserts should nearly always expand radii, got %v", alienRatio)
	}
	// Rebuild resets the signal.
	if rebuilt(t, g.idx).DriftRatio() != 0 {
		t.Fatal("DriftRatio should reset after rebuild")
	}
}
