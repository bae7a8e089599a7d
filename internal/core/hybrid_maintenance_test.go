package core

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/knn"
	"repro/internal/metric"
)

// Every write lands in the index's write overlay, and Compact folds it
// into a fresh base by Build's rule (§6.2). These tests replay random
// write streams — inserts, inserts at an existing object's place (ties
// in ds, or in both orders), deletes, updates that move an object across
// clusters, folds at chosen points, and batches that fail after they
// wrote and are rolled back — on a built index, or on an overlay clone
// of it. After every step they require CheckInvariants
// clean, exact answers equal to a linear scan and counted reads that
// charge every live row once; after every fold, of every cluster exactly
// what a from-scratch ordering of its members gives and of every side
// cluster's radii a from-scratch max over its live rows. Then they
// delete the rows that set a radius and fold, and check the same. No
// write moves a built cluster, and written on the clone, the built
// index's answers must not move either.

// snapHybrids deep-copies every cluster's array.
func snapHybrids(x *Index) map[*hybrid][]element {
	snap := make(map[*hybrid][]element, len(x.clusters))
	for _, c := range x.clusters {
		snap[c] = slices.Clone(c.elems)
	}
	return snap
}

// requireFromScratch holds every cluster of x to a from-scratch ordering
// of its members — positions with both distances recomputed — fed in
// reverse so the sort, not the input, decides.
func requireFromScratch(t testing.TB, ctx string, x *Index) {
	t.Helper()
	for ci, c := range x.clusters {
		ms := make([]member, len(c.elems))
		for j, e := range c.elems {
			ms[len(ms)-1-j] = member{idx: e.idx, ds: x.spatialToCent(e.idx, c.s), dt: x.semanticToCent(e.idx, c.t)}
		}
		var fresh hybrid
		fresh.buildElems(ms)
		if !slices.Equal(c.elems, fresh.elems) {
			t.Fatalf("%s: cluster %d (%d members) differs from a from-scratch ordering", ctx, ci, len(c.elems))
		}
	}
}

// requireRadii holds every side cluster's three radii, bit for bit, to a
// from-scratch max over the side's live rows (0 for an empty side).
func requireRadii(t testing.TB, ctx string, x *Index) {
	t.Helper()
	sRad := make([]float64, len(x.sCentX))
	tRad, tRadProj := make([]float64, len(x.tCent)), make([]float64, len(x.tCent))
	for i := range x.rows() {
		idx := uint32(i)
		s, st := x.sides(x.cells[idx])
		sRad[s] = max(sRad[s], x.spatialToCent(idx, s))
		tRad[st] = max(tRad[st], x.semanticToCent(idx, st))
		tRadProj[st] = max(tRadProj[st], x.projToCent(idx, st))
	}
	for _, r := range []struct {
		name      string
		got, want []float64
	}{{"spatial", x.sRad, sRad}, {"semantic", x.tRad, tRad}, {"projected", x.tRadProj, tRadProj}} {
		if !slices.Equal(r.got, r.want) {
			t.Fatalf("%s: %s radii %v, a from-scratch max gives %v", ctx, r.name, r.got, r.want)
		}
	}
}

// radiusSetter returns the live row that sets one radius of the side
// clusters of x's first cluster: kind 0 the spatial radius, 1 the
// semantic and 2 the projected one.
func radiusSetter(x *Index, kind int) uint32 {
	c := x.clusters[0]
	var setter uint32
	far := -1.0
	for i := range x.rows() {
		idx := uint32(i)
		s, st := x.sides(x.cells[idx])
		if (kind == 0 && s != c.s) || (kind > 0 && st != c.t) {
			continue
		}
		d := [3]func() float64{
			func() float64 { return x.spatialToCent(idx, s) },
			func() float64 { return x.semanticToCent(idx, st) },
			func() float64 { return x.projToCent(idx, st) },
		}[kind]()
		if d > far {
			far, setter = d, idx
		}
	}
	return setter
}

// maintenanceAnswers asks x a fixed set of exact queries.
func maintenanceAnswers(x *Index, queries []dataset.Object) [][]knn.Result {
	var out [][]knn.Result
	for qi := range queries {
		for _, lambda := range []float64{0, 0.4, 1} {
			out = append(out, x.Search(&queries[qi], 5, lambda, nil))
		}
	}
	return out
}

// runHybridMaintenance replays ops, two bytes per op (kind, argument),
// on a fresh 300-object index — its own overlay, or an overlay clone of
// it when clone is set. Every tenth object shares its neighbour's
// location, so the build already meets ties in ds alone.
func runHybridMaintenance(t *testing.T, clone bool, ops []byte) {
	ds, err := dataset.Generate(dataset.GenConfig{Kind: dataset.TwitterLike, Size: 300, Dim: 32, Seed: 51})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < ds.Len(); i += 10 {
		ds.Objects[i].X, ds.Objects[i].Y = ds.Objects[i+1].X, ds.Objects[i+1].Y
	}
	sp, err := metric.NewSpace(ds)
	if err != nil {
		t.Fatal(err)
	}
	parent, err := Build(ds, sp, Config{Seed: 301})
	if err != nil {
		t.Fatal(err)
	}
	if err := parent.CheckInvariants(); err != nil {
		t.Fatalf("built: %v", err)
	}
	pool, err := dataset.Generate(dataset.GenConfig{Kind: dataset.YelpLike, Size: 64, Dim: 32, Seed: 302})
	if err != nil {
		t.Fatal(err)
	}
	parentSnap, parentClusters := snapHybrids(parent), slices.Clone(parent.clusters)
	queries := ds.SampleQueries(4, 303)
	parentAnswers := maintenanceAnswers(parent, queries)
	x := parent
	if clone {
		x = cloneHeader(parent)
	}
	fold := func(ctx string) {
		t.Helper()
		if x, err = x.Compact(); err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
		requireFromScratch(t, ctx, x)
		requireRadii(t, ctx, x)
	}
	check := func(ctx string, step int) {
		t.Helper()
		if err := x.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
		sc, liveDs := liveSet(x)
		for _, lambda := range []float64{0.3, 1} {
			q := liveDs.Objects[(step*37+11)%liveDs.Len()]
			if got, want := x.Search(&q, 5, lambda, nil), sc.Search(&q, 5, lambda, nil); !slices.Equal(got, want) {
				t.Fatalf("%s, λ=%v: search %v, scan %v", ctx, lambda, got, want)
			}
			requirePruningIdentity(t, ctx, []*Index{x}, &q, 5, lambda)
		}
	}
	live := make([]uint32, 0, ds.Len()+len(ops)/2)
	for i := range ds.Objects {
		live = append(live, ds.Objects[i].ID)
	}
	nextID := uint32(1_000_000)
	for i := 0; i+1 < len(ops); i += 2 {
		arg, kind := int(ops[i+1]), ops[i]%6
		ctx := fmt.Sprintf("op %d (kind %d)", i/2, kind)
		var err error
		switch kind {
		case 0: // a new object
			o := pool.Objects[arg%len(pool.Objects)]
			o.ID, nextID = nextID, nextID+1
			err = x.Insert(o)
			live = append(live, o.ID)
		case 1: // a live object's place under a new ID: its text too (ties
			// in both orders) or, for an odd argument, another one
			src, ok := x.Object(live[arg%len(live)])
			if !ok {
				t.Fatalf("%s: live ID %d not found", ctx, live[arg%len(live)])
			}
			o := src
			o.Vec = slices.Clone(o.Vec)
			if arg%2 == 1 {
				o.Vec = slices.Clone(pool.Objects[arg%len(pool.Objects)].Vec)
			}
			o.ID, nextID = nextID, nextID+1
			err = x.Insert(o)
			live = append(live, o.ID)
		case 2: // delete
			if len(live) < 2 {
				continue
			}
			j := arg % len(live)
			err = x.Delete(live[j])
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		case 3: // update: move, and every other time take another vector
			src, ok := x.Object(live[arg%len(live)])
			if !ok {
				t.Fatalf("%s: live ID %d not found", ctx, live[arg%len(live)])
			}
			o := src
			o.X = clamp01(o.X + float64(arg-128)/512)
			o.Vec = slices.Clone(o.Vec)
			if arg%2 == 1 {
				o.Vec = slices.Clone(pool.Objects[arg%len(pool.Objects)].Vec)
			}
			err = x.Update(o)
		case 4:
			fold(ctx)
		default: // an all-or-nothing batch that fails after it wrote
			failBatch(t, ctx, x, pool.Objects[arg%len(pool.Objects)], nextID, live, arg)
		}
		if err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
		check(ctx, i/2)
	}
	fold("final fold")
	for kind := range 3 {
		if x.Len() < 2 {
			break
		}
		ctx := fmt.Sprintf("radius setter %d", kind)
		if err := x.Delete(x.ids[radiusSetter(x, kind)]); err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
		fold(ctx)
		check(ctx, kind)
	}
	if !slices.Equal(parent.clusters, parentClusters) {
		t.Fatal("the writes changed the built index's cluster list")
	}
	for _, c := range parent.clusters {
		if !slices.Equal(c.elems, parentSnap[c]) {
			t.Fatal("the writes changed a built cluster")
		}
	}
	if !clone {
		return
	}
	if err := parent.CheckInvariants(); err != nil {
		t.Fatalf("parent: %v", err)
	}
	got := maintenanceAnswers(parent, queries)
	for i := range got {
		if !slices.Equal(got[i], parentAnswers[i]) {
			t.Fatalf("parent answer %d moved: %v, was %v", i, got[i], parentAnswers[i])
		}
	}
}

// failBatch writes a copy of x's header as a failing batch would — an
// insert of a new object under id, an update of a live row and a delete
// of one of the two newest, then a delete of an unknown ID — and rolls
// it back. x must then be its
// lineage's head again, with its answers and their counted-read Stats
// unmoved.
func failBatch(t *testing.T, ctx string, x *Index, o dataset.Object, id uint32, live []uint32, arg int) {
	t.Helper()
	queries := []dataset.Object{o}
	if len(live) > 0 {
		q, _ := x.Object(live[arg%len(live)])
		queries = append(queries, q)
	}
	counted := func() ([][]knn.Result, []metric.Stats) {
		var res [][]knn.Result
		var sts []metric.Stats
		for qi := range queries {
			for _, lambda := range []float64{0.3, 1} {
				var st metric.Stats
				res = append(res, x.Search(&queries[qi], 5, lambda, &st))
				sts = append(sts, st)
			}
		}
		return res, sts
	}
	wantRes, wantSt := counted()
	wantLen, wantOps := x.Len(), x.DeltaOps()
	y := cloneHeader(x)
	o.ID = id
	if err := y.Insert(o); err != nil {
		t.Fatalf("%s: batch insert: %v", ctx, err)
	}
	if len(live) >= 2 {
		up, _ := x.Object(live[arg%len(live)])
		up.X = clamp01(1 - up.X)
		if err := y.Update(up); err != nil {
			t.Fatalf("%s: batch update: %v", ctx, err)
		}
		// The newest live ID: an overlay row unless a fold came after it.
		if err := y.Delete(live[len(live)-1-(arg+1)%2]); err != nil {
			t.Fatalf("%s: batch delete: %v", ctx, err)
		}
	}
	if err := y.Delete(id + 1); err == nil {
		t.Fatalf("%s: delete of unknown ID %d accepted", ctx, id+1)
	}
	y.Rollback(x)
	if d := x.delta; d != nil && (d.head.ops != x.dv.ops || d.head.n != x.dv.n || len(d.head.groups) != len(x.dv.groups)) {
		t.Fatalf("%s: after the rollback the lineage's head is at op %d, x at %d", ctx, d.head.ops, x.dv.ops)
	}
	gotRes, gotSt := counted()
	if x.Len() != wantLen || x.DeltaOps() != wantOps || !slices.EqualFunc(gotRes, wantRes, slices.Equal) || !slices.Equal(gotSt, wantSt) {
		t.Fatalf("%s: the rolled-back batch moved x (Len %d -> %d, ops %d -> %d)", ctx, wantLen, x.Len(), wantOps, x.DeltaOps())
	}
}

func TestHybridMaintenance(t *testing.T) {
	for _, clone := range []bool{false, true} {
		for seed := uint64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewPCG(seed, 304))
			ops := make([]byte, 240)
			for i := range ops {
				ops[i] = byte(rng.IntN(256))
			}
			runHybridMaintenance(t, clone, ops)
		}
	}
}

// FuzzHybridMaintenance drives the one write path: overlay inserts,
// deletes and updates with Compact at fuzzed points (kind 4) and
// all-or-nothing batches that fail after they wrote, rolled back
// (kind 5).
func FuzzHybridMaintenance(f *testing.F) {
	f.Add(false, []byte{0, 7, 1, 9, 2, 3, 4, 0, 3, 200, 1, 1, 1, 1, 2, 0})
	f.Add(true, []byte{1, 0, 1, 0, 1, 0, 2, 5, 4, 1, 3, 17, 3, 18, 0, 255})
	f.Add(true, []byte{3, 1, 3, 3, 3, 5, 2, 2, 2, 4, 2, 6, 4, 2, 0, 0, 1, 2})
	f.Add(false, []byte{0, 3, 5, 1, 3, 4, 5, 2, 2, 9, 5, 7, 4, 0, 5, 3, 0, 1})
	f.Fuzz(func(t *testing.T, clone bool, ops []byte) {
		if len(ops) > 160 {
			ops = ops[:160]
		}
		runHybridMaintenance(t, clone, ops)
	})
}
