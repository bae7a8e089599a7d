package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/knn"
	"repro/internal/metric"
	"repro/internal/scan"
	"repro/internal/vec"
)

// trueDt is the reference the anchor bound is held against: a plain
// float64 distance, normalized.
func trueDt(a, b []float32, dtMax float64) float64 {
	var s float64
	for i := range a {
		d := float64(a[i]) - float64(b[i])
		s += d * d
	}
	return math.Sqrt(s) / dtMax
}

// anchorCase is one admissibility instance: rows, queries and anchors at
// one magnitude, optionally with exact duplicates and zero vectors mixed
// in.
func anchorCase(seed uint64, scale float64, dim int, dups, zeros bool) (rows, queries, anchors [][]float32) {
	rng := rand.New(rand.NewPCG(seed, 0xa9c4))
	gen := func(n int) [][]float32 {
		out := make([][]float32, n)
		for i := range out {
			v := make([]float32, dim)
			for j := range v {
				v[j] = float32((rng.Float64()*2 - 1) * scale)
			}
			out[i] = v
		}
		return out
	}
	rows, queries, anchors = gen(12), gen(4), gen(5)
	if dups {
		rows[1] = slices.Clone(rows[0])
		rows[2] = slices.Clone(anchors[0])
		queries[1] = slices.Clone(rows[3])
		queries[2] = slices.Clone(anchors[1])
		anchors[2] = slices.Clone(anchors[3])
	}
	if zeros {
		rows[4] = make([]float32, dim)
		queries[3] = make([]float32, dim)
		anchors[4] = make([]float32, dim)
	}
	return rows, queries, anchors
}

// checkAnchorAdmissible holds every row against every anchor — a row's
// own choice plays no part, so every deliberately wrong assignment is
// covered — and against the sentinel: the deflated bound must not exceed
// the true distance.
func checkAnchorAdmissible(t *testing.T, rows, queries, anchors [][]float32) {
	t.Helper()
	all := slices.Concat(rows, queries, anchors)
	lo, hi := vec.MinMax(all)
	sp := &metric.Space{DsMax: 1, DtMax: vec.Dist(lo, hi)}
	if sp.DtMax == 0 {
		sp.DtMax = 1
	}
	for qi, q := range queries {
		for ri, row := range rows {
			truth := trueDt(q, row, sp.DtMax)
			if lb := anchorLower(0, 0, math.Inf(-1)); lb > truth {
				t.Fatalf("query %d row %d: sentinel bound %v exceeds true distance %v", qi, ri, lb, truth)
			}
			for ai, a := range anchors {
				d := float64(float32(sp.SemanticVec(row, a)))
				dq := sp.SemanticVec(q, a)
				if lb := anchorLower(dq, d, math.Inf(-1)); lb > truth {
					t.Fatalf("query %d row %d anchor %d: bound %v exceeds true distance %v (dq %v, stored %v)",
						qi, ri, ai, lb, truth, dq, d)
				}
			}
		}
	}
}

// The anchor bound is admissible at normal, float32-subnormal and 1e6
// magnitudes, with duplicates and zero vectors, for any assignment.
func TestAnchorBoundAdmissible(t *testing.T) {
	for _, scale := range []float64{1, 1e-40, 1e6} {
		for _, dim := range []int{1, 3, 32, 100} {
			for mode := 0; mode < 4; mode++ {
				for seed := uint64(0); seed < 8; seed++ {
					rows, queries, anchors := anchorCase(seed, scale, dim, mode&1 != 0, mode&2 != 0)
					checkAnchorAdmissible(t, rows, queries, anchors)
				}
			}
		}
	}
}

func FuzzAnchorBound(f *testing.F) {
	f.Add(uint64(1), int8(0), uint8(32), uint8(0))
	f.Add(uint64(2), int8(-40), uint8(8), uint8(1))
	f.Add(uint64(3), int8(6), uint8(100), uint8(2))
	f.Add(uint64(4), int8(0), uint8(0), uint8(3))
	f.Add(uint64(5), int8(-44), uint8(3), uint8(3))
	f.Fuzz(func(t *testing.T, seed uint64, scaleExp int8, dim, mode uint8) {
		if scaleExp < -44 {
			scaleExp = -44
		}
		if scaleExp > 18 { // squares stay finite in float64, values in float32
			scaleExp = 18
		}
		rows, queries, anchors := anchorCase(seed, math.Pow(10, float64(scaleExp)), 1+int(dim)%128, mode&1 != 0, mode&2 != 0)
		checkAnchorAdmissible(t, rows, queries, anchors)
	})
}

// liveSet returns the live objects of x (overlay included) and a linear
// scanner over them.
func liveSet(x *Index) (*scan.Scanner, *dataset.Dataset) {
	ds := &dataset.Dataset{Objects: x.collectLive(), Dim: x.dim}
	return scan.New(ds, x.space), ds
}

// requireGateExact holds every gated loop of x against its gate-off
// references: SearchAblated (the paper's Lemma 4.5, no row check) and
// the linear scan, ID for ID, over the λ edges and k ≥ n; range, box and filtered search against the scan; and — on flat
// indexes, where the eager reference applies — CSSIA against the
// paper-faithful loop.
func requireGateExact(t *testing.T, ctx string, x *Index) {
	t.Helper()
	if err := x.CheckInvariants(); err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	sc, live := liveSet(x)
	n := live.Len()
	allow := func(id uint32) bool { return id%3 != 0 }
	kept := &dataset.Dataset{Dim: live.Dim}
	for _, o := range live.Objects {
		if allow(o.ID) {
			kept.Objects = append(kept.Objects, o)
		}
	}
	keptScan := scan.New(kept, x.space)
	for qi := 0; qi < 5; qi++ {
		q := live.Objects[(qi*61+7)%n]
		if qi%2 == 1 {
			other := live.Objects[(qi*131+29)%n]
			q.X, q.Y = (q.X+other.X)/2, (q.Y+other.Y)/2
			v := slices.Clone(q.Vec)
			for i := range v {
				v[i] = (v[i] + other.Vec[i]) / 2
			}
			q.Vec = v
		}
		for _, lambda := range []float64{0, 0.1, 0.5, 0.9, 1} {
			for _, k := range []int{1, 10, n + 5} {
				ref := x.SearchAblated(&q, k, lambda, AblationOptions{}, nil)
				identicalResults(t, ctx+": ablated vs scan", sc.Search(&q, k, lambda, nil), ref)
				identicalResults(t, ctx+": gate vs ablated", ref, x.Search(&q, k, lambda, nil))
				if x.delta == nil {
					identicalResults(t, ctx+": cssia vs eager", searchApproxEager(x, &q, k, lambda), x.SearchApprox(&q, k, lambda, nil))
				}
			}
			all := sc.Search(&q, n, lambda, nil)
			r := all[min(12, n-1)].Dist
			inRange := all[:0:0]
			for _, res := range all {
				if res.Dist <= r {
					inRange = append(inRange, res)
				}
			}
			identicalResults(t, ctx+": range", inRange, x.RangeSearch(&q, r, lambda, nil))
			identicalResults(t, ctx+": filtered", keptScan.Search(&q, 10, lambda, nil), x.SearchFiltered(&q, 10, lambda, allow, nil))
		}
		loX, loY, hiX, hiY := q.X-0.2, q.Y-0.15, q.X+0.25, q.Y+0.3
		boxed := &dataset.Dataset{Dim: live.Dim}
		for _, o := range live.Objects {
			if o.X >= loX && o.X <= hiX && o.Y >= loY && o.Y <= hiY {
				boxed.Objects = append(boxed.Objects, o)
			}
		}
		for _, k := range []int{1, 10, n + 5} {
			var want []knn.Result
			if boxed.Len() > 0 {
				want = scan.New(boxed, x.space).Search(&q, k, 0, nil) // λ = 0: d is dt exactly
			}
			identicalResults(t, ctx+": box", want, x.SearchInBox(&q, loX, loY, hiX, hiY, k, nil))
		}
	}
}

// deleteClusters removes every member of the first few hybrid clusters.
func deleteClusters(t *testing.T, x *Index, clusters int) {
	t.Helper()
	var ids []uint32
	for _, c := range x.clusters[:clusters] {
		for _, m := range c.members {
			ids = append(ids, x.objects[m.idx].ID)
		}
	}
	for _, id := range ids {
		if err := x.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
}

// insertFresh inserts n objects x has not seen, each near an existing
// one but at its own distance from any query (CSSIA's answer depends on
// visit order among exact ties, which the eager reference does not pin).
func insertFresh(t *testing.T, x *Index, pool []dataset.Object, firstID uint32, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		o := pool[(i*7+3)%len(pool)]
		o.ID = firstID + uint32(i)
		o.X = clamp01(o.X + 0.004*float64(1+i%5) + 1e-6*float64(i))
		o.Vec = slices.Clone(o.Vec)
		o.Vec[i%len(o.Vec)] += 1e-3 * float32(1+i)
		if err := x.Insert(o); err != nil {
			t.Fatal(err)
		}
	}
}

// Every flavor of index state answers every gated loop exactly: fresh,
// churned in place (sentinel rows, emptied clusters), behind a write
// overlay (tombstoned clusters, overlay inserts), compacted, reloaded
// and rebuilt — on both corpus kinds, and under the angular metric, where no anchor applies and only the component-wise cut runs.
func TestGateBitIdenticalAcrossStates(t *testing.T) {
	for _, tc := range []struct {
		name string
		kind dataset.Kind
		sem  metric.SemanticMetric
		cfg  Config
	}{
		{"twitter", dataset.TwitterLike, metric.EuclideanSemantic, Config{Seed: 181}},
		{"yelp", dataset.YelpLike, metric.EuclideanSemantic, Config{Seed: 182}},
		{"twitter-angular", dataset.TwitterLike, metric.AngularSemantic, Config{Seed: 183}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ds, err := dataset.Generate(dataset.GenConfig{Kind: tc.kind, Size: 500, Dim: 32, Seed: 57})
			if err != nil {
				t.Fatal(err)
			}
			sp, err := metric.NewSpaceWithSemantic(ds, tc.sem)
			if err != nil {
				t.Fatal(err)
			}
			x, err := Build(ds, sp, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			anchored := tc.sem == metric.EuclideanSemantic
			if got := len(x.anchors.set.pts); anchored != (got > 0) {
				t.Fatalf("%d anchors under semantic metric %v", got, tc.sem)
			}
			requireGateExact(t, "fresh", x)

			flat := x.CloneForWrite()
			deleteClusters(t, flat, 4)
			insertFresh(t, flat, ds.Objects, 900_000, 40)
			requireGateExact(t, "churned", flat)

			over := x.CloneWithDelta()
			deleteClusters(t, over, 4)
			insertFresh(t, over, ds.Objects, 910_000, 30)
			requireGateExact(t, "overlay", over)

			compacted, err := over.Compact()
			if err != nil {
				t.Fatal(err)
			}
			requireGateExact(t, "compacted", compacted)

			requireGateExact(t, "loaded", saveLoad(t, compacted))

			rebuilt, err := flat.RebuildFresh()
			if err != nil {
				t.Fatal(err)
			}
			requireGateExact(t, "rebuilt", rebuilt)
		})
	}
}

// The anchor arena follows every maintenance path: new rows enter on the
// sentinel, deletes and overlay tombstones take them out of the count,
// Compact carries the overlay's inserts over as sentinel rows, and Load
// and RebuildFresh anchor everything again. CheckInvariants (arena
// lengths, ids, stored distances, window-vs-gathered identity) holds at
// every step.
func TestAnchorsSurviveMaintenance(t *testing.T) {
	f := build(t, dataset.TwitterLike, 600, Config{Seed: 184})
	x := f.idx
	step := func(ctx string, x *Index, wantUnanchored int) {
		t.Helper()
		if err := x.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
		if got := x.UnanchoredRows(); got != wantUnanchored {
			t.Fatalf("%s: %d unanchored rows, want %d", ctx, got, wantUnanchored)
		}
	}
	step("built", x, 0)

	insertFresh(t, x, f.ds.Objects, 800_000, 25)
	step("inserted", x, 25)
	if err := x.Delete(800_003); err != nil {
		t.Fatal(err)
	}
	if err := x.Delete(f.ds.Objects[10].ID); err != nil {
		t.Fatal(err)
	}
	step("deleted", x, 24)
	moved := f.ds.Objects[20]
	moved.X = clamp01(moved.X + 0.3)
	if err := x.Update(moved); err != nil {
		t.Fatal(err)
	}
	step("updated", x, 25)

	over := x.CloneWithDelta()
	insertFresh(t, over, f.ds.Objects, 810_000, 10)
	if err := over.Delete(800_004); err != nil { // a sentinel base row
		t.Fatal(err)
	}
	if err := over.Delete(f.ds.Objects[30].ID); err != nil { // an anchored base row
		t.Fatal(err)
	}
	if err := over.Delete(810_002); err != nil { // an overlay insert
		t.Fatal(err)
	}
	step("overlay", over, 25-1+10-1)
	step("overlay parent", x, 25)

	compacted, err := over.Compact()
	if err != nil {
		t.Fatal(err)
	}
	step("compacted", compacted, 33)

	loaded := saveLoad(t, compacted)
	step("loaded", loaded, 0)
	requireClusterMajor(t, "loaded", loaded)

	rebuilt, err := compacted.RebuildFresh()
	if err != nil {
		t.Fatal(err)
	}
	step("rebuilt", rebuilt, 0)
	if err := compacted.Rebuild(); err != nil {
		t.Fatal(err)
	}
	step("rebuilt in place", compacted, 0)
}

// Every visited row is either skipped by the gate or costs exactly one
// semantic kernel. A seed that fills the heap up front makes every
// cluster scan a bounded one.
func TestAnchorStatsPartitionVisited(t *testing.T) {
	f := build(t, dataset.TwitterLike, 1500, Config{Seed: 185})
	seed := make([]knn.Result, 10)
	for i := range seed {
		seed[i] = knn.Result{ID: uint32(2_000_000 + i), Dist: 0.3}
	}
	var st metric.Stats
	for qi := 0; qi < 20; qi++ {
		q := f.ds.Objects[(qi*37+5)%f.ds.Len()]
		f.idx.SearchOptionsInto(nil, &q, len(seed), 0.5, SearchOptions{Seed: seed}, &st)
	}
	if st.VisitedObjects == 0 || st.AnchorPruned == 0 || st.SemanticDistCalcs == 0 {
		t.Fatalf("degenerate run: %+v", st)
	}
	if st.AnchorPruned+st.SemanticDistCalcs != st.VisitedObjects {
		t.Fatalf("anchorPruned %d + semantic kernels %d != visited %d",
			st.AnchorPruned, st.SemanticDistCalcs, st.VisitedObjects)
	}
}

// BuildWithAnchors shares one fitted set between indexes over parts of a
// corpus: both parts stay exact and point at the same set.
func TestBuildWithSharedAnchors(t *testing.T) {
	ds, err := dataset.Generate(dataset.GenConfig{Kind: dataset.TwitterLike, Size: 800, Dim: 32, Seed: 58})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := metric.NewSpace(ds)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Seed: 186, Ks: 8, Kt: 8}
	set := FitAnchors(ds, sp, cfg)
	if len(set.pts) != 8 {
		t.Fatalf("%d anchors, want Kt = 8", len(set.pts))
	}
	for part := 0; part < 2; part++ {
		sub := &dataset.Dataset{Dim: ds.Dim}
		for i := part; i < ds.Len(); i += 2 {
			sub.Objects = append(sub.Objects, ds.Objects[i])
		}
		spPart := *sp
		x, err := BuildWithAnchors(sub, &spPart, cfg, set)
		if err != nil {
			t.Fatal(err)
		}
		if x.anchors.set != set {
			t.Fatal("the part fitted its own anchors")
		}
		requireGateExact(t, "shared anchors", x)
	}
}

// Readers keep every gated loop running on a published parent while a
// COW clone appends sentinel rows until the anchor arena has been
// reallocated: the parent's answers and anchor bytes must not move (the
// race detector checks the sharing).
func TestAnchorCloneGrowsUnderReaders(t *testing.T) {
	f := build(t, dataset.TwitterLike, 500, Config{Seed: 187})
	parent := f.idx
	queries := f.ds.SampleQueries(8, 5)
	type answers struct{ exact, approx, ranged, boxed []knn.Result }
	ask := func(q *dataset.Object) answers {
		return answers{
			exact:  parent.Search(q, 10, 0.5, nil),
			approx: parent.SearchApprox(q, 10, 0.5, nil),
			ranged: parent.RangeSearch(q, 0.12, 0.5, nil),
			boxed:  parent.SearchInBox(q, q.X-0.2, q.Y-0.2, q.X+0.2, q.Y+0.2, 10, nil),
		}
	}
	same := func(a, b answers) bool {
		return slices.Equal(a.exact, b.exact) && slices.Equal(a.approx, b.approx) &&
			slices.Equal(a.ranged, b.ranged) && slices.Equal(a.boxed, b.boxed)
	}
	want := make([]answers, len(queries))
	for i := range queries {
		want[i] = ask(&queries[i])
	}
	ids, dists := slices.Clone(parent.anchors.id), slices.Clone(parent.anchors.dist)

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
				if !same(ask(&queries[qi]), want[qi]) {
					t.Errorf("parent answer to query %d changed while the clone grew", qi)
					return
				}
			}
		}(r)
	}

	clone := parent.CloneForWrite()
	insertFresh(t, clone, f.ds.Objects, 6_000_000, 2*parent.Len())
	close(stop)
	wg.Wait()

	if &clone.anchors.id[0] == &parent.anchors.id[0] || &clone.anchors.dist[0] == &parent.anchors.dist[0] {
		t.Fatal("the clone did not outgrow the anchor arena")
	}
	if !slices.Equal(ids, parent.anchors.id) || !slices.Equal(dists, parent.anchors.dist) {
		t.Fatal("parent anchor rows changed under the clone's growth")
	}
	if got, want := clone.UnanchoredRows(), 2*parent.Len(); got != want {
		t.Fatalf("clone has %d unanchored rows, want %d", got, want)
	}
	requireGateExact(t, "grown clone", clone)
	requireGateExact(t, "parent", parent)
	requireScratchesUnpinned(t, parent)
}

// gatedLoops runs the five gated scan loops on x for one query and
// returns each loop's answer and work counters.
func gatedLoops(x *Index, q *dataset.Object, k int, lambda float64) (res [5][]knn.Result, st [5]metric.Stats) {
	res[0] = x.SearchOptionsInto(nil, q, k, lambda, SearchOptions{}, &st[0])
	res[1] = x.SearchApprox(q, k, lambda, &st[1])
	res[2] = x.RangeSearch(q, 0.15, lambda, &st[2])
	res[3] = x.SearchInBox(q, q.X-0.2, q.Y-0.15, q.X+0.25, q.Y+0.3, k, &st[3])
	res[4] = x.SearchFiltered(q, k, lambda, func(id uint32) bool { return id%3 != 0 }, &st[4])
	return res, st
}

// setHeads overwrites the head thresholds of every cluster of x.
func setHeads(x *Index, v float64) {
	for _, c := range x.clusters {
		c.headDs, c.headDt = v, v
	}
}

// The pre-scan cut of enterCluster is the row-0 cut taken early: it may
// change what a cluster visit costs, never what it counts. A twin index
// whose head thresholds are +Inf never takes it — every bounded cluster
// falls through to the row loop, as before the headers existed — and
// must report the same answers and the same Stats, counter for counter,
// on every gated loop and in every index state. A third twin whose heads
// sit far below every distance takes the cut on every bounded cluster,
// which shows each loop really consults the header.
func TestHeadCutAccounting(t *testing.T) {
	cfg := Config{Seed: 188}
	on, off, all := build(t, dataset.TwitterLike, 1200, cfg), build(t, dataset.TwitterLike, 1200, cfg), build(t, dataset.TwitterLike, 1200, cfg)
	pool := on.ds.Objects
	compare := func(stage string, x, twin, cutAll *Index) {
		t.Helper()
		setHeads(twin, math.Inf(1))
		if cutAll != nil {
			setHeads(cutAll, -1e300)
		}
		var sum, sumAll [5]metric.Stats
		for qi := 0; qi < 12; qi++ {
			q := pool[(qi*89+13)%len(pool)]
			for _, lambda := range []float64{0, 0.5, 1} {
				for _, k := range []int{1, 10} {
					res, st := gatedLoops(x, &q, k, lambda)
					resOff, stOff := gatedLoops(twin, &q, k, lambda)
					for l := range res {
						identicalResults(t, fmt.Sprintf("%s loop %d q%d λ=%v k=%d", stage, l, qi, lambda, k), resOff[l], res[l])
						if st[l] != stOff[l] {
							t.Fatalf("%s loop %d q%d λ=%v k=%d: stats %+v, without the head cut %+v", stage, l, qi, lambda, k, st[l], stOff[l])
						}
						sum[l].Add(&st[l])
					}
					if cutAll != nil && lambda == 0.5 {
						_, stAll := gatedLoops(cutAll, &q, k, lambda)
						for l := range stAll {
							sumAll[l].Add(&stAll[l])
						}
					}
				}
			}
		}
		for l := range sum {
			if sum[l].ClustersExamined == 0 || sum[l].VisitedObjects == 0 {
				t.Fatalf("%s loop %d: degenerate run %+v", stage, l, sum[l])
			}
			if cutAll != nil && sumAll[l].VisitedObjects >= sum[l].VisitedObjects {
				t.Fatalf("%s loop %d: heads below every distance visited %d rows, real heads %d — the loop ignores the header",
					stage, l, sumAll[l].VisitedObjects, sum[l].VisitedObjects)
			}
		}
	}
	compare("fresh", on.idx, off.idx, all.idx)

	churn := func(x *Index) *Index {
		c := x.CloneForWrite()
		deleteClusters(t, c, 4)
		insertFresh(t, c, pool, 900_000, 60)
		return c
	}
	compare("churned", churn(on.idx), churn(off.idx), nil)

	overlay := func(x *Index) *Index {
		o := x.CloneWithDelta()
		deleteClusters(t, o, 4)
		insertFresh(t, o, pool, 910_000, 40)
		return o
	}
	over, overOff := overlay(on.idx), overlay(off.idx)
	compare("overlay", over, overOff, nil)

	compact := func(x *Index) *Index {
		c, err := x.Compact()
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	compare("compacted", compact(over), compact(overOff), nil)
}

// TestAnchorRankingMatchesOneAtATime: ranking four anchors per pass picks
// the anchor a plain loop over the anchors picks — one float32
// accumulator per anchor summed in dimension order, first strict minimum
// — at anchor counts on both sides of a multiple of four, with duplicate
// anchors (exact ties), duplicates of the row itself (distance zero) and
// vectors shorter than the prefix.
func TestAnchorRankingMatchesOneAtATime(t *testing.T) {
	rng := rand.New(rand.NewPCG(28, 5))
	sp := &metric.Space{DsMax: 1, DtMax: 1}
	for _, dim := range []int{3, anchorPrefixDims, 40} {
		for _, k := range []int{1, 2, 3, 4, 5, 8, 11, 73} {
			pts := make([][]float32, k)
			for i := range pts {
				pts[i] = make([]float32, dim)
				for j := range pts[i] {
					pts[i][j] = float32(rng.IntN(5)) * 0.25 // few distinct values: ties
				}
			}
			if k > 2 {
				pts[k-1] = slices.Clone(pts[0])
			}
			a := &Anchors{pts: pts, p: min(dim, anchorPrefixDims)}
			for _, pt := range pts {
				a.prefix = append(a.prefix, pt[:a.p]...)
			}
			rows := append(slices.Clone(pts), make([]float32, dim))
			for i := 0; i < 200; i++ {
				v := make([]float32, dim)
				for j := range v {
					v[j] = float32(rng.IntN(5))*0.25 + float32(rng.IntN(2))*float32(rng.NormFloat64())
				}
				rows = append(rows, v)
			}
			for _, v := range rows {
				want, wantSq := 0, float32(math.Inf(1))
				for id, pt := range pts {
					var sq float32
					for j := 0; j < a.p; j++ {
						d := v[j] - pt[j]
						sq += d * d
					}
					if sq < wantSq {
						want, wantSq = id, sq
					}
				}
				got, dist := a.assign(sp, v)
				if int(got) != want {
					t.Fatalf("dim %d, %d anchors: row %v ranked anchor %d first, one-at-a-time ranks %d", dim, k, v, got, want)
				}
				if wantDist := float32(sp.SemanticVec(v, pts[want])); math.Float32bits(dist) != math.Float32bits(wantDist) {
					t.Fatalf("dim %d, %d anchors: distance %v, want %v", dim, k, dist, wantDist)
				}
			}
		}
	}
}
