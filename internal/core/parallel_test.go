package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/metric"
)

func TestMaxPerPartition(t *testing.T) {
	vals := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	parts := []int{0, 1, 0, 1, 2, 2, 0, 1}
	for _, workers := range []int{1, 2, 5} {
		got := maxPerPartition(len(vals), 3, workers,
			func(i int) int { return parts[i] },
			func(i int) float64 { return vals[i] })
		want := []float64{4, 6, 9}
		for p := range want {
			if got[p] != want[p] {
				t.Fatalf("workers=%d partition %d: %v want %v", workers, p, got[p], want[p])
			}
		}
	}
}

func TestMaxPerPartitionEmpty(t *testing.T) {
	got := maxPerPartition(0, 3, 4, func(int) int { return 0 }, func(int) float64 { return 1 })
	for _, v := range got {
		if v != 0 {
			t.Fatalf("empty fold produced %v", got)
		}
	}
}

// sameBuild fails unless a and b are the same index structurally: what
// Build decided (storage order, assignments, centroids, radii, PCA axes,
// anchors, every cluster's array), not merely what a
// search over it returns — any correct index returns the exact answer.
func sameBuild(t *testing.T, ctx string, a, b *Index) {
	t.Helper()
	eq := func(what string, x, y any) {
		t.Helper()
		if !reflect.DeepEqual(x, y) {
			t.Fatalf("%s: %s differs", ctx, what)
		}
	}
	eq("storage order", a.ids, b.ids)
	eq("texts", a.texts, b.texts)
	eq("topics", a.topics, b.topics)
	eq("ID table", a.idIdx, b.idIdx)
	eq("vector arena", a.vecArena, b.vecArena)
	eq("projection arena", a.projArena, b.projArena)
	eq("cells", a.cells, b.cells)
	eq("spatial centroids x", a.sCentX, b.sCentX)
	eq("spatial centroids y", a.sCentY, b.sCentY)
	eq("spatial radii", a.sRad, b.sRad)
	eq("semantic centroids", a.tCent, b.tCent)
	eq("projected centroids", a.tCentProj, b.tCentProj)
	eq("semantic radii", a.tRad, b.tRad)
	eq("projected radii", a.tRadProj, b.tRadProj)
	eq("valid flags", a.tValid, b.tValid)
	eq("PCA mean", a.pcaModel.Mean, b.pcaModel.Mean)
	eq("PCA components", a.pcaModel.Components, b.pcaModel.Components)
	eq("projected normalizer", a.space.DtProjMax, b.space.DtProjMax)
	eq("anchor points", a.anchors.set.pts, b.anchors.set.pts)
	eq("anchor ids", a.anchors.id, b.anchors.id)
	eq("anchor distances", a.anchors.dist, b.anchors.dist)
	if len(a.clusters) != len(b.clusters) {
		t.Fatalf("%s: %d clusters vs %d", ctx, len(a.clusters), len(b.clusters))
	}
	for i, ca := range a.clusters {
		cb := b.clusters[i]
		if ca.s != cb.s || ca.t != cb.t || ca.base != cb.base ||
			!reflect.DeepEqual(ca.elems, cb.elems) {
			t.Fatalf("%s: cluster %d (%d,%d) differs from (%d,%d)", ctx, i, ca.s, ca.t, cb.s, cb.t)
		}
	}
}

// The Workers knob must not change the built index: a single-threaded
// build and builds on 2, 3 and 8 workers are the same index, and every
// search over them does the same work.
func TestWorkersDoNotChangeResults(t *testing.T) {
	for _, kind := range []dataset.Kind{dataset.TwitterLike, dataset.YelpLike} {
		f1 := build(t, kind, 1500, Config{Seed: 92, Workers: 1})
		for _, workers := range []int{2, 3, 8} {
			fw := build(t, kind, 1500, Config{Seed: 92, Workers: workers})
			ctx := fmt.Sprintf("%v workers=%d", kind, workers)
			sameBuild(t, ctx, f1.idx, fw.idx)
			for qi := 0; qi < 5; qi++ {
				q := f1.ds.Objects[(qi*113+7)%f1.ds.Len()]
				var sa, sb metric.Stats
				a := f1.idx.Search(&q, 10, 0.5, &sa)
				b := fw.idx.Search(&q, 10, 0.5, &sb)
				sameResults(t, ctx, a, b)
				if sa != sb {
					t.Fatalf("%s: query %d counters %+v vs %+v", ctx, qi, sa, sb)
				}
				a = f1.idx.SearchOptionsInto(nil, &q, 10, 0.5, SearchOptions{Approx: true}, &sa)
				b = fw.idx.SearchOptionsInto(nil, &q, 10, 0.5, SearchOptions{Approx: true}, &sb)
				sameResults(t, ctx+" approx", a, b)
				if sa != sb {
					t.Fatalf("%s: approx query %d counters %+v vs %+v", ctx, qi, sa, sb)
				}
			}
			if err := fw.idx.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		}
	}
}
