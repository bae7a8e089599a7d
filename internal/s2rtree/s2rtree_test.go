package s2rtree

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/metric"
	"repro/internal/scan"
	"repro/internal/vec"
)

func setup(t *testing.T, kind dataset.Kind, size int) (*dataset.Dataset, *metric.Space, *Index, *scan.Scanner) {
	t.Helper()
	ds, err := dataset.Generate(dataset.GenConfig{Kind: kind, Size: size, Dim: 24, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := metric.NewSpace(ds)
	if err != nil {
		t.Fatal(err)
	}
	return ds, sp, Build(ds, sp, Config{Seed: 1}), scan.New(ds, sp)
}

func TestSearchMatchesScan(t *testing.T) {
	ds, _, idx, sc := setup(t, dataset.TwitterLike, 600)
	for _, lambda := range []float64{0, 0.3, 0.5, 0.7, 1} {
		for qi := 0; qi < 8; qi++ {
			q := ds.Objects[(qi*37+5)%ds.Len()]
			want := sc.Search(&q, 10, lambda, nil)
			got := idx.Search(&q, 10, lambda, nil)
			if len(got) != len(want) {
				t.Fatalf("λ=%v: got %d results", lambda, len(got))
			}
			for i := range want {
				if got[i].Dist != want[i].Dist {
					t.Fatalf("λ=%v q=%d result %d: %v vs %v", lambda, q.ID, i, got[i].Dist, want[i].Dist)
				}
			}
		}
	}
}

func TestSearchMatchesScanYelp(t *testing.T) {
	ds, _, idx, sc := setup(t, dataset.YelpLike, 500)
	q := ds.Objects[100]
	want := sc.Search(&q, 25, 0.5, nil)
	got := idx.Search(&q, 25, 0.5, nil)
	for i := range want {
		if got[i].Dist != want[i].Dist {
			t.Fatalf("result %d: %v vs %v", i, got[i].Dist, want[i].Dist)
		}
	}
}

func TestPivotsAreDistinct(t *testing.T) {
	_, _, idx, _ := setup(t, dataset.TwitterLike, 300)
	ps := idx.pivots
	if len(ps) != 2 {
		t.Fatalf("got %d pivots", len(ps))
	}
	if vec.Dist(ps[0], ps[1]) == 0 {
		t.Fatal("farthest-first traversal picked identical pivots")
	}
}

func TestMorePivotsStillExact(t *testing.T) {
	ds, err := dataset.Generate(dataset.GenConfig{Kind: dataset.TwitterLike, Size: 400, Dim: 24, Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	sp, _ := metric.NewSpace(ds)
	idx := Build(ds, sp, Config{Pivots: 6, Seed: 2})
	sc := scan.New(ds, sp)
	q := ds.Objects[9]
	want := sc.Search(&q, 10, 0.4, nil)
	got := idx.Search(&q, 10, 0.4, nil)
	for i := range want {
		if got[i].Dist != want[i].Dist {
			t.Fatalf("result %d: %v vs %v", i, got[i].Dist, want[i].Dist)
		}
	}
}

func TestEmptyDataset(t *testing.T) {
	sp := &metric.Space{DsMax: 1, DtMax: 1}
	idx := Build(&dataset.Dataset{Dim: 4}, sp, Config{})
	q := dataset.Object{Vec: make([]float32, 4)}
	if got := idx.Search(&q, 5, 0.5, nil); got != nil {
		t.Fatalf("expected nil results, got %v", got)
	}
}

func TestTinyDataset(t *testing.T) {
	ds, err := dataset.Generate(dataset.GenConfig{Kind: dataset.TwitterLike, Size: 3, Dim: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sp, _ := metric.NewSpace(ds)
	idx := Build(ds, sp, Config{})
	got := idx.Search(&ds.Objects[0], 10, 0.5, nil)
	if len(got) != 3 {
		t.Fatalf("got %d results, want 3", len(got))
	}
}

// The spatial-first shortcoming (§2): with λ=0 the spatial component of
// the lower bound vanishes, and the pivot MBBs alone prune little, so the
// index visits a large share of the data. This is the behaviour the paper
// criticises, so we assert it holds qualitatively.
func TestLowLambdaVisitsMany(t *testing.T) {
	ds, _, idx, _ := setup(t, dataset.TwitterLike, 2000)
	q := ds.Objects[11]
	var stLow, stHigh metric.Stats
	idx.Search(&q, 10, 0.0, &stLow)
	idx.Search(&q, 10, 1.0, &stHigh)
	if stLow.VisitedObjects <= stHigh.VisitedObjects {
		t.Fatalf("expected λ=0 (%d visited) to be worse than λ=1 (%d visited)",
			stLow.VisitedObjects, stHigh.VisitedObjects)
	}
}

// Property: the pivot-space Chebyshev gap lower-bounds the true semantic
// distance (the triangle-inequality guarantee all S²R pruning rests on).
func TestPivotLowerBoundProperty(t *testing.T) {
	ds, err := dataset.Generate(dataset.GenConfig{Kind: dataset.TwitterLike, Size: 400, Dim: 24, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	sp, _ := metric.NewSpace(ds)
	idx := Build(ds, sp, Config{Pivots: 4, Seed: 9})
	for trial := 0; trial < 300; trial++ {
		a := &ds.Objects[(trial*13)%ds.Len()]
		b := &ds.Objects[(trial*29+7)%ds.Len()]
		pa := projectVec(a.Vec, idx.pivots)
		pb := projectVec(b.Vec, idx.pivots)
		lb := chebGap(pa, pb)
		true_ := vec.Dist(a.Vec, b.Vec)
		if lb > true_+1e-6 {
			t.Fatalf("pivot bound %v exceeds true distance %v", lb, true_)
		}
	}
}
