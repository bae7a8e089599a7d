package core

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"repro/internal/dataset"
	"repro/internal/knn"
	"repro/internal/metric"
	"repro/internal/scan"
)

// Ablated searches must all return the exact result — pruning only
// removes non-results.
func TestAblationsAreExact(t *testing.T) {
	f := build(t, dataset.TwitterLike, 900, Config{Seed: 60})
	combos := []AblationOptions{
		{},
		{DisableInterCluster: true},
		{DisableIntraCluster: true},
		{DisableClusterOrder: true},
		{DisableInterCluster: true, DisableIntraCluster: true},
		{DisableInterCluster: true, DisableIntraCluster: true, DisableClusterOrder: true},
	}
	for _, lambda := range []float64{0.2, 0.5, 0.9} {
		q := f.ds.Objects[44]
		want := f.sc.Search(&q, 10, lambda, nil)
		for _, opts := range combos {
			got := f.idx.SearchAblated(&q, 10, lambda, opts, nil)
			sameResults(t, "ablated", want, got)
		}
	}
}

// Disabling pruning must strictly increase visited objects (on data where
// the full algorithm prunes at all).
func TestAblationVisitsMore(t *testing.T) {
	f := build(t, dataset.TwitterLike, 2000, Config{Seed: 61})
	q := f.ds.Objects[17]
	var full, noInter, noIntra, none metric.Stats
	f.idx.SearchAblated(&q, 10, 0.5, AblationOptions{}, &full)
	f.idx.SearchAblated(&q, 10, 0.5, AblationOptions{DisableInterCluster: true}, &noInter)
	f.idx.SearchAblated(&q, 10, 0.5, AblationOptions{DisableIntraCluster: true}, &noIntra)
	f.idx.SearchAblated(&q, 10, 0.5, AblationOptions{DisableInterCluster: true, DisableIntraCluster: true}, &none)
	if none.VisitedObjects != int64(f.ds.Len()) {
		t.Fatalf("fully ablated search visited %d of %d", none.VisitedObjects, f.ds.Len())
	}
	if full.VisitedObjects > noInter.VisitedObjects || full.VisitedObjects > noIntra.VisitedObjects {
		t.Fatalf("pruning did not reduce visits: full=%d noInter=%d noIntra=%d",
			full.VisitedObjects, noInter.VisitedObjects, noIntra.VisitedObjects)
	}
}

// SearchAblated with no switches must agree exactly with Search.
func TestAblatedDefaultMatchesSearch(t *testing.T) {
	f := build(t, dataset.YelpLike, 700, Config{Seed: 62})
	for qi := 0; qi < 5; qi++ {
		q := f.ds.Objects[(qi*111+5)%f.ds.Len()]
		a := f.idx.Search(&q, 10, 0.5, nil)
		b := f.idx.SearchAblated(&q, 10, 0.5, AblationOptions{}, nil)
		sameResults(t, "default ablation", a, b)
	}
}

// rangeSearch, boxSearch and filteredSearch are the exact read under a
// radius (K large enough for every match), a window (ranked by meaning
// alone) and a row predicate.
func rangeSearch(x *Index, q *dataset.Object, r, lambda float64, st *metric.Stats) []knn.Result {
	return x.SearchOptionsInto(nil, q, max(x.Len(), 1), lambda, SearchOptions{Radius: &r}, st)
}

func boxSearch(x *Index, q *dataset.Object, w Window, k int, st *metric.Stats) []knn.Result {
	return x.SearchOptionsInto(nil, q, k, 0, SearchOptions{Window: &w}, st)
}

func filteredSearch(x *Index, q *dataset.Object, k int, lambda float64, allow func(uint32) bool, st *metric.Stats) []knn.Result {
	return x.SearchOptionsInto(nil, q, k, lambda, SearchOptions{Allow: allow}, st)
}

// rangeBrute is the reference range query.
func rangeBrute(f *fixture, q *dataset.Object, r, lambda float64) []knn.Result {
	var out []knn.Result
	for i := range f.ds.Objects {
		d := f.sp.Distance(nil, lambda, q, &f.ds.Objects[i])
		if d <= r {
			out = append(out, knn.Result{ID: f.ds.Objects[i].ID, Dist: d})
		}
	}
	knn.SortResults(out)
	return out
}

func TestRangeSearchMatchesBruteForce(t *testing.T) {
	f := build(t, dataset.TwitterLike, 800, Config{Seed: 63})
	rng := rand.New(rand.NewPCG(2, 2))
	for trial := 0; trial < 15; trial++ {
		q := f.ds.Objects[rng.IntN(f.ds.Len())]
		lambda := rng.Float64()
		r := 0.02 + rng.Float64()*0.1
		want := rangeBrute(f, &q, r, lambda)
		got := rangeSearch(f.idx, &q, r, lambda, nil)
		if len(got) != len(want) {
			t.Fatalf("trial %d (r=%v λ=%v): got %d results, want %d", trial, r, lambda, len(got), len(want))
		}
		for i := range want {
			if got[i].ID != want[i].ID || got[i].Dist != want[i].Dist {
				t.Fatalf("trial %d result %d: %+v vs %+v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestRangeSearchZeroRadius(t *testing.T) {
	f := build(t, dataset.TwitterLike, 300, Config{Seed: 64})
	q := f.ds.Objects[9]
	got := rangeSearch(f.idx, &q, 0, 0.5, nil)
	if len(got) < 1 || got[0].ID != q.ID {
		t.Fatalf("zero-radius range should return the query object itself, got %v", got)
	}
}

func TestRangeSearchPrunes(t *testing.T) {
	f := build(t, dataset.TwitterLike, 3000, Config{Seed: 65})
	q := f.ds.Objects[10]
	var st metric.Stats
	rangeSearch(f.idx, &q, 0.05, 0.5, &st)
	if st.VisitedObjects >= int64(f.ds.Len()) {
		t.Fatal("range search visited everything")
	}
	if st.VisitedObjects+st.InterPruned+st.IntraPruned != int64(f.ds.Len()) {
		t.Fatalf("range accounting identity broken: %+v", st)
	}
}

// boxBrute is the reference windowed semantic k-NN.
func boxBrute(f *fixture, q *dataset.Object, loX, loY, hiX, hiY float64, k int) []knn.Result {
	h := knn.NewHeap(k)
	for i := range f.ds.Objects {
		o := &f.ds.Objects[i]
		if o.X < loX || o.X > hiX || o.Y < loY || o.Y > hiY {
			continue
		}
		h.Push(knn.Result{ID: o.ID, Dist: f.sp.SemanticVec(q.Vec, o.Vec)})
	}
	return h.Sorted()
}

func TestSearchInBoxMatchesBruteForce(t *testing.T) {
	f := build(t, dataset.TwitterLike, 900, Config{Seed: 66})
	rng := rand.New(rand.NewPCG(4, 4))
	for trial := 0; trial < 15; trial++ {
		q := f.ds.Objects[rng.IntN(f.ds.Len())]
		cx, cy := rng.Float64(), rng.Float64()
		w := 0.1 + rng.Float64()*0.4
		loX, loY := cx-w/2, cy-w/2
		hiX, hiY := cx+w/2, cy+w/2
		want := boxBrute(f, &q, loX, loY, hiX, hiY, 5)
		got := boxSearch(f.idx, &q, Window{loX, loY, hiX, hiY}, 5, nil)
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d results, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i].Dist != want[i].Dist {
				t.Fatalf("trial %d result %d: %v vs %v", trial, i, got[i].Dist, want[i].Dist)
			}
		}
	}
}

func TestSearchInBoxEmptyWindow(t *testing.T) {
	f := build(t, dataset.TwitterLike, 300, Config{Seed: 67})
	q := f.ds.Objects[1]
	got := boxSearch(f.idx, &q, Window{2, 2, 3, 3}, 5, nil) // window outside [0,1]²
	if len(got) != 0 {
		t.Fatalf("expected empty result, got %d", len(got))
	}
}

func TestSearchInBoxWholeSpaceEqualsSemanticKNN(t *testing.T) {
	f := build(t, dataset.TwitterLike, 500, Config{Seed: 68})
	q := f.ds.Objects[3]
	boxed := boxSearch(f.idx, &q, Window{0, 0, 1, 1}, 10, nil)
	pure := f.sc.Search(&q, 10, 0, nil) // λ=0 is pure semantic
	for i := range pure {
		if boxed[i].Dist != pure[i].Dist {
			t.Fatalf("result %d: %v vs %v", i, boxed[i].Dist, pure[i].Dist)
		}
	}
}

func TestSearchInBoxAccounting(t *testing.T) {
	f := build(t, dataset.TwitterLike, 2000, Config{Seed: 69})
	q := f.ds.Objects[8]
	var st metric.Stats
	boxSearch(f.idx, &q, Window{0.4, 0.4, 0.6, 0.6}, 10, &st)
	if st.VisitedObjects+st.InterPruned+st.IntraPruned != int64(f.ds.Len()) {
		t.Fatalf("box accounting identity broken: %+v (len=%d)", st, f.ds.Len())
	}
}

// The restricted reads answer what the linear scan answers over the rows
// that pass the restriction, ID for ID: on a flat index, and chained
// through P = 1 and P = 4 partitions that carry overlay inserts and
// tombstones by one SearchShardsInto read (the facade's read of a
// sharded index). The radius ties the 16th distance
// exactly, so a row at d == r answers, and with K below the match count
// the read returns the first K matches.
func TestRestrictedReadsMatchScan(t *testing.T) {
	ds, err := dataset.Generate(dataset.GenConfig{Kind: dataset.TwitterLike, Size: 1200, Dim: 32, Seed: 52})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := metric.NewSpace(ds)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Seed: 53}
	anchors := FitAnchors(ds, sp, cfg)
	partition := func(p int, overlay bool) []*Index {
		parts := make([]*Index, p)
		for i := range parts {
			part := &dataset.Dataset{Dim: ds.Dim}
			for _, o := range ds.Objects {
				if int(o.ID)%p == i {
					part.Objects = append(part.Objects, o)
				}
			}
			psp := *sp
			x, err := BuildWithAnchors(part, &psp, cfg, anchors)
			if err != nil {
				t.Fatal(err)
			}
			if overlay {
				x = x.CloneWithDelta()
				first := 5_000_000 + uint32(i)*1000
				insertFresh(t, x, part.Objects, first, 30)
				for j := 0; j < part.Len(); j += 9 {
					if err := x.Delete(part.Objects[j].ID); err != nil {
						t.Fatal(err)
					}
				}
				if err := x.Delete(first + 3); err != nil {
					t.Fatal(err)
				}
			}
			parts[i] = x
		}
		return parts
	}
	for _, fx := range []struct {
		name  string
		parts []*Index
	}{{"flat", partition(1, false)}, {"P=1", partition(1, true)}, {"P=4", partition(4, true)}} {
		var live []dataset.Object
		for _, x := range fx.parts {
			live = append(live, x.collectLive()...)
		}
		n := len(live)
		sharded := func(q *dataset.Object, k int, lambda float64, opts SearchOptions) []knn.Result {
			return SearchShardsInto(nil, fx.parts, q, k, lambda, opts, nil, nil)
		}
		oracle := func(q *dataset.Object, k int, lambda float64, keep func(o *dataset.Object) bool) []knn.Result {
			sub := &dataset.Dataset{Dim: ds.Dim}
			for _, o := range live {
				if keep(&o) {
					sub.Objects = append(sub.Objects, o)
				}
			}
			if sub.Len() == 0 {
				return nil
			}
			return scan.New(sub, sp).Search(q, k, lambda, nil)
		}
		allow := func(id uint32) bool { return id%3 != 0 }
		for qi := 0; qi < 6; qi++ {
			q := live[(qi*97+5)%n]
			w := Window{q.X - 0.2, q.Y - 0.15, q.X + 0.25, q.Y + 0.3}
			for _, lambda := range []float64{0, 0.5, 1} {
				ctx := fmt.Sprintf("%s q%d λ=%v", fx.name, qi, lambda)
				all := oracle(&q, n, lambda, func(*dataset.Object) bool { return true })
				r := all[15].Dist
				inRange := all[:0:0]
				for _, res := range all {
					if res.Dist <= r {
						inRange = append(inRange, res)
					}
				}
				for _, k := range []int{len(inRange), len(inRange) + 5, 3} {
					identicalResults(t, fmt.Sprintf("%s range k=%d", ctx, k), inRange[:min(k, len(inRange))],
						sharded(&q, k, lambda, SearchOptions{Radius: &r}))
				}
				for _, k := range []int{1, 10, n + 5} {
					identicalResults(t, fmt.Sprintf("%s window k=%d", ctx, k),
						oracle(&q, k, lambda, func(o *dataset.Object) bool { return w.contains(o.X, o.Y) }),
						sharded(&q, k, lambda, SearchOptions{Window: &w}))
				}
				identicalResults(t, ctx+" allow", oracle(&q, 10, lambda, func(o *dataset.Object) bool { return allow(o.ID) }),
					sharded(&q, 10, lambda, SearchOptions{Allow: allow}))
			}
		}
	}
}
