package core

import (
	"bytes"
	"encoding/gob"
	"math/rand/v2"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/knn"
	"repro/internal/metric"
)

// TestRouterTraining pins when Build trains the router: a normally
// sized index carries a model, a tiny one (below the self-query
// sample floor) does not — and Route requests on it silently fall back
// to the unrouted algorithms.
func TestRouterTraining(t *testing.T) {
	f := build(t, dataset.TwitterLike, 1200, Config{Seed: 100})
	if f.idx.Router() == nil {
		t.Fatal("1200-object index should train a router")
	}
	tiny := build(t, dataset.TwitterLike, 40, Config{Seed: 100})
	if tiny.idx.Router() != nil {
		t.Fatal("40-object index should skip router training")
	}
	q := tiny.ds.Objects[0]
	want := tiny.idx.Search(&q, 5, 0.5, nil)
	got := tiny.idx.SearchOptionsInto(nil, &q, 5, 0.5, SearchOptions{Route: true}, nil)
	requireIdentical(t, "tiny fallback", 0, want, got)
}

// TestRoutedExactVsEager pins what Route means on an exact query since
// the exact-reorder pre-pass was removed: nothing. The request is
// accepted, the answer is bit-identical to the eager reference, no
// cluster is routed and every work counter equals the plain search's.
func TestRoutedExactVsEager(t *testing.T) {
	f := build(t, dataset.TwitterLike, 1200, Config{Seed: 101})
	if f.idx.Router() == nil {
		t.Fatal("fixture has no trained router")
	}
	if !f.idx.lazyOrderable() {
		t.Fatal("fixture should take the lazy weak-bound path")
	}
	rng := rand.New(rand.NewPCG(101, 1))
	var st, plain metric.Stats
	for trial := 0; trial < 40; trial++ {
		q := f.ds.Objects[rng.IntN(f.ds.Len())]
		k := 1 + rng.IntN(25)
		lambda := rng.Float64()
		want := searchEager(f.idx, nil, &q, k, lambda)
		got := f.idx.SearchOptionsInto(nil, &q, k, lambda, SearchOptions{Route: true}, &st)
		requireIdentical(t, "routed exact", trial, want, got)
		f.idx.Search(&q, k, lambda, &plain)
	}
	if st.ClustersRouted != 0 || st != plain {
		t.Fatalf("Route on exact queries changed the work done:\nrouted %+v\nplain  %+v", st, plain)
	}
}

// TestRoutedExactEagerBoundPath repeats the bit-identity check on the
// non-lazy ordering path (angular semantics disable the weak projected
// bound, so the semantic sides enter the frontier final).
func TestRoutedExactEagerBoundPath(t *testing.T) {
	ds, err := dataset.Generate(dataset.GenConfig{Kind: dataset.TwitterLike, Size: 900, Dim: 32, Seed: 54})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := metric.NewSpaceWithSemantic(ds, metric.AngularSemantic)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := Build(ds, sp, Config{Seed: 102})
	if err != nil {
		t.Fatal(err)
	}
	if idx.lazyOrderable() {
		t.Fatal("angular fixture should NOT take the lazy weak-bound path")
	}
	if idx.Router() == nil {
		t.Fatal("fixture has no trained router")
	}
	rng := rand.New(rand.NewPCG(102, 1))
	for trial := 0; trial < 25; trial++ {
		q := ds.Objects[rng.IntN(ds.Len())]
		k := 1 + rng.IntN(15)
		lambda := rng.Float64()
		want := searchEager(idx, nil, &q, k, lambda)
		got := idx.SearchOptionsInto(nil, &q, k, lambda, SearchOptions{Route: true}, nil)
		requireIdentical(t, "routed angular", trial, want, got)
	}
}

// TestRoutedExactAfterDeletes holds the bit-identity through deletions
// (shrunken clusters, stale radii, a router trained on the pre-delete
// distribution).
func TestRoutedExactAfterDeletes(t *testing.T) {
	f := build(t, dataset.TwitterLike, 1000, Config{Seed: 103})
	rng := rand.New(rand.NewPCG(103, 1))
	for i := range f.ds.Objects {
		if rng.Float64() < 0.25 {
			if err := f.idx.Delete(f.ds.Objects[i].ID); err != nil {
				t.Fatal(err)
			}
		}
	}
	for trial := 0; trial < 30; trial++ {
		q := f.ds.Objects[rng.IntN(f.ds.Len())]
		k := 1 + rng.IntN(20)
		lambda := rng.Float64()
		want := searchEager(f.idx, nil, &q, k, lambda)
		got := f.idx.SearchOptionsInto(nil, &q, k, lambda, SearchOptions{Route: true}, nil)
		requireIdentical(t, "routed exact+deletes", trial, want, got)
	}
}

// routedRecall runs exact and routed-approximate searches over nq
// sampled queries and returns the mean recall@k plus the summed work
// counters of the routed runs.
func routedRecall(f *fixture, nq, k int, target float64, seed uint64) (float64, metric.Stats) {
	rng := rand.New(rand.NewPCG(seed, 1))
	var st metric.Stats
	sum := 0.0
	for i := 0; i < nq; i++ {
		q := f.ds.Objects[rng.IntN(f.ds.Len())]
		lambda := rng.Float64()
		exact := f.idx.Search(&q, k, lambda, nil)
		approx := f.idx.SearchOptionsInto(nil, &q, k, lambda,
			SearchOptions{Approx: true, Route: true, RouteTarget: target}, &st)
		sum += 1 - knn.ErrorRate(exact, approx)
	}
	return sum / float64(nq), st
}

// TestRoutedApproxRecallAndKnob checks the routed approximate mode end
// to end: high recall at the default probability-mass target, and the
// RouteTarget knob trading recall for work monotonically (a lower
// target must not examine more clusters).
func TestRoutedApproxRecallAndKnob(t *testing.T) {
	f := build(t, dataset.TwitterLike, 2000, Config{Seed: 104})
	if f.idx.Router() == nil {
		t.Fatal("fixture has no trained router")
	}
	recall, stDefault := routedRecall(f, 30, 10, 0, 104)
	if recall < 0.9 {
		t.Fatalf("mean recall@10 at the default target = %.3f, want >= 0.9", recall)
	}
	if stDefault.ClustersRouted == 0 {
		t.Fatal("routed approximate mode routed no clusters")
	}
	_, stLow := routedRecall(f, 30, 10, 0.3, 104)
	if stLow.ClustersExamined > stDefault.ClustersExamined {
		t.Fatalf("target 0.3 examined %d clusters, default target examined %d — lower target must not examine more",
			stLow.ClustersExamined, stDefault.ClustersExamined)
	}
	full, _ := routedRecall(f, 30, 10, 1, 104)
	if full < recall {
		t.Fatalf("target 1 recall %.3f below default-target recall %.3f", full, recall)
	}
}

// TestRouterPersistRoundTrip pins persist v4: the trained model
// round-trips bit-identically and routed searches agree before and
// after the round trip.
func TestRouterPersistRoundTrip(t *testing.T) {
	f := build(t, dataset.TwitterLike, 1200, Config{Seed: 105})
	if f.idx.Router() == nil {
		t.Fatal("fixture has no trained router")
	}
	var buf bytes.Buffer
	if err := f.idx.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, _, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded.Router(), f.idx.Router()) {
		t.Fatal("loaded router differs from the saved one")
	}
	rng := rand.New(rand.NewPCG(105, 1))
	for trial := 0; trial < 10; trial++ {
		q := f.ds.Objects[rng.IntN(f.ds.Len())]
		k := 1 + rng.IntN(15)
		lambda := rng.Float64()
		opts := SearchOptions{Approx: true, Route: true}
		want := f.idx.SearchOptionsInto(nil, &q, k, lambda, opts, nil)
		got := loaded.SearchOptionsInto(nil, &q, k, lambda, opts, nil)
		requireIdentical(t, "persist round trip", trial, want, got)
	}
}

// TestRouterPersistPreV4Retrains pins the back-compat contract: a file
// saved before version 4 carries no routing model, and Load retrains
// one from the restored live set — deterministically, so it matches the
// model a fresh Build over the same data produces.
func TestRouterPersistPreV4Retrains(t *testing.T) {
	f := build(t, dataset.TwitterLike, 1200, Config{Seed: 106})
	var buf bytes.Buffer
	if err := f.idx.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var g gobIndex
	if err := gob.NewDecoder(&buf).Decode(&g); err != nil {
		t.Fatal(err)
	}
	// Rewrite the file as a v3 ancestor: no route fields at all.
	g.Version = persistVersionV3
	g.RouteHasModel = false
	g.RouteBias, g.RouteW, g.RouteMean, g.RouteScale = 0, nil, nil, nil
	var old bytes.Buffer
	if err := gob.NewEncoder(&old).Encode(&g); err != nil {
		t.Fatal(err)
	}
	loaded, _, err := Load(&old)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Router() == nil {
		t.Fatal("loading a pre-v4 file should retrain the router")
	}
	if !reflect.DeepEqual(loaded.Router(), f.idx.Router()) {
		t.Fatal("retrained router differs from the build-time model over identical data")
	}
}
