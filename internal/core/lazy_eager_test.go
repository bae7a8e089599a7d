package core

import (
	"math"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/knn"
	"repro/internal/metric"
)

// orderedCluster and sortOrder are the eager ordering of Alg. 2 line 4
// the frontier replaced: every cluster paired with its bound, sorted.
// They survive here only, as the oracle's ordering.
type orderedCluster struct {
	lb float64
	c  *hybrid
}

func sortOrder(order []orderedCluster) {
	slices.SortFunc(order, func(a, b orderedCluster) int {
		switch {
		case a.lb < b.lb:
			return -1
		case a.lb > b.lb:
			return 1
		default:
			return 0
		}
	})
}

// searchEager is the pre-frontier reference implementation of exact
// CSSI: every centroid distance computed up front, clusters sorted
// eagerly by TRUE lower bound, then scanned linearly with the Lemma 4.4
// cut-off and the paper's own cluster scan (the original Lemma 4.5, no
// row gate). It lives in test code only — the
// production path is the lazy best-first frontier over gated scans, and
// this reference pins its results.
func searchEager(x *Index, seed []knn.Result, q *dataset.Object, k int, lambda float64) []knn.Result {
	sc := x.getScratch()
	defer x.putScratch(sc)
	x.fillSpatialCentroidDists(sc, q)
	x.fillSemanticCentroidDists(sc, q)
	var order []orderedCluster
	for _, c := range x.clusters {
		order = append(order, orderedCluster{
			lb: lowerBound(lambda, sc.dsq[c.s], x.sRad[c.s], sc.dtq[c.t], x.tRad[c.t]),
			c:  c,
		})
	}
	sortOrder(order)
	h := &sc.heap
	h.Reset(k)
	for _, r := range seed {
		h.Push(r)
	}
	for _, e := range order {
		if u, full := h.Bound(); full && e.lb >= u {
			break
		}
		x.scanClusterAblated(q, lambda, e.c, sc.dsq[e.c.s], sc.dtq[e.c.t], h, nil, false)
	}
	return h.AppendSorted(nil)
}

// searchApproxEager is the pre-frontier reference implementation of
// CSSIA: projected bounds for every cluster up front, eager sort, then
// the identical scan body run linearly.
func searchApproxEager(x *Index, q *dataset.Object, k int, lambda float64) []knn.Result {
	sc := x.getScratch()
	defer x.putScratch(sc)
	qProj := sc.qProj
	x.pcaModel.TransformInto(qProj, q.Vec)
	x.fillSpatialCentroidDists(sc, q)
	for t := range sc.dtqProj {
		sc.dtqProj[t] = x.space.SemanticProjVec(qProj, x.tCentProj[t])
	}
	var order []orderedCluster
	for _, c := range x.clusters {
		order = append(order, orderedCluster{
			lb: lowerBound(lambda, sc.dsq[c.s], x.sRad[c.s], sc.dtqProj[c.t], x.tRadProj[c.t]),
			c:  c,
		})
	}
	sortOrder(order)
	cands := sc.cands[:0]
	defer func() { sc.cands = cands[:0] }()
	u, uPrime := math.Inf(1), math.Inf(1)
	for t := range sc.dtqKnown {
		sc.dtqKnown[t] = false
	}
	for _, oc := range order {
		if len(cands) >= k && oc.lb >= uPrime {
			break
		}
		c := oc.c
		if !sc.dtqKnown[c.t] {
			sc.dtq[c.t] = x.space.SemanticVec(q.Vec, x.tCent[c.t])
			sc.dtqKnown[c.t] = true
		}
		dtqC := sc.dtq[c.t]
		enclosed := sc.dsq[c.s] < x.sRad[c.s] && dtqC < x.tRad[c.t]
		dqC := lambda*sc.dsq[c.s] + (1-lambda)*dtqC
		for ei := range c.elems {
			e := &c.elems[ei]
			if !enclosed && len(cands) >= k {
				bound := lambda*e.ds + (1-lambda)*e.dt
				if dqC-bound > u {
					break
				}
			}
			o := &x.objects[e.idx]
			ds := x.space.Spatial(nil, q.X, q.Y, o.X, o.Y)
			var dt float64
			if len(cands) >= k && lambda < 1 {
				dtBound := (u - lambda*ds) / (1 - lambda)
				var ok bool
				dt, ok = x.space.SemanticBound(nil, q.Vec, o.Vec, dtBound)
				if !ok {
					continue
				}
			} else {
				dt = x.space.Semantic(nil, q.Vec, o.Vec)
			}
			d := metric.Combine(lambda, ds, dt)
			if d < u || len(cands) < k {
				dpr := metric.Combine(lambda, ds, x.space.SemanticProjVec(qProj, x.projAt(e.idx)))
				cands.push(cand{id: o.ID, d: d, dpr: dpr})
				if len(cands) > k {
					cands.popMax()
				}
				if len(cands) == k {
					u = cands[0].d
					uPrime = cands.maxDPr()
				}
			}
		}
	}
	out := make([]knn.Result, 0, len(cands))
	for _, c := range cands {
		out = append(out, knn.Result{ID: c.id, Dist: c.d})
	}
	knn.SortResults(out)
	return out
}

// TestFrontierPopOrderMatchesSort drives sideFrontier directly over
// random geometry — grid shape, populated mask (empty rows, empty
// columns, the empty grid), radii on both sides of the centroid
// distances so all four cases of Eq. 4 occur, λ at and between its
// ends, weak semantic bounds anywhere between 0 and the truth, spatial
// sides without a cursor — against the eager sort of lowerBound: the
// popped bounds never decrease, each is lowerBound of its cluster bit
// for bit, every populated cluster of a cursor's row comes out exactly
// once, and a side's true dtq is computed at most once and only for
// sides the stream refined.
func TestFrontierPopOrderMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 1))
	lambdas := []float64{0, 0.3, 1}
	for trial := 0; trial < 300; trial++ {
		ks, kt := 1+rng.IntN(40), 1+rng.IntN(40)
		lambda := lambdas[trial%len(lambdas)]
		x := &Index{
			space:       &metric.Space{DsMax: 1, DtMax: 1, SemanticKind: metric.EuclideanSemantic},
			dim:         1,
			sCentX:      make([]float64, ks),
			sCentY:      make([]float64, ks),
			sRad:        make([]float64, ks),
			tCent:       make([][]float32, kt),
			tRad:        make([]float64, kt),
			grid:        make([]*hybrid, ks*kt),
			scratchPool: newScratchPool(),
		}
		// Populated mask: a density anywhere in [0,1], then some rows and
		// columns wiped; every third trial of the sparsest kind is empty.
		density := rng.Float64()
		if trial%25 == 0 {
			density = 0
		}
		deadRow, deadCol := rng.IntN(ks), rng.IntN(kt)
		for s := 0; s < ks; s++ {
			for tt := 0; tt < kt; tt++ {
				if rng.Float64() >= density || (trial%2 == 0 && (s == deadRow || tt == deadCol)) {
					continue
				}
				c := &hybrid{s: s, t: tt, elems: make([]element, 1+rng.IntN(4))}
				x.grid[x.cell(s, tt)] = c
				x.clusters = append(x.clusters, c)
				x.live += len(c.elems)
			}
		}
		q := &dataset.Object{Vec: []float32{0}}
		sc := x.getScratch()
		dtqTrue := make([]float64, kt)
		dtWeak := make([]float64, kt)
		for tt := range x.tCent {
			x.tCent[tt] = []float32{rng.Float32()}
			x.tRad[tt] = rng.Float64()
			dtqTrue[tt] = x.space.SemanticVec(q.Vec, x.tCent[tt])
			dtWeak[tt] = dtqTrue[tt] * rng.Float64()
			if rng.IntN(4) == 0 {
				dtWeak[tt] = dtqTrue[tt] // weak bound already tight
			}
			sc.dtqKnown[tt] = false
		}
		for s := range sc.dsq {
			sc.dsq[s] = rng.Float64()
			x.sRad[s] = rng.Float64()
		}
		x.fillSpatialTerms(sc, lambda)
		// One spatial side in five gets no cursor (the box query's
		// filtered-out sides): its clusters must never be yielded.
		want := map[*hybrid]float64{}
		for s := range sc.aTerm {
			if rng.IntN(5) == 0 {
				sc.aTerm[s] = -1
			}
		}
		for _, c := range x.clusters {
			if sc.aTerm[c.s] >= 0 {
				want[c] = lowerBound(lambda, sc.dsq[c.s], x.sRad[c.s], dtqTrue[c.t], x.tRad[c.t])
			}
		}
		var ref []orderedCluster
		for c, lb := range want {
			ref = append(ref, orderedCluster{lb: lb, c: c})
		}
		sortOrder(ref)

		f := x.startFrontier(sc, q, 1-lambda, dtWeak, x.tRad, false)
		stop := rng.IntN(len(ref) + 1) // where the stats cut is probed
		prev := math.Inf(-1)
		var elems int64 // elements of the clusters popped so far
		for i := 0; ; i++ {
			c, lb, ok := f.peek()
			// Poison the centroid of every side whose dtq is known: a
			// second computation would turn its bound into NaN.
			for tt, known := range sc.dtqKnown {
				if known {
					x.tCent[tt][0] = float32(math.NaN())
				}
			}
			if i == stop {
				var st metric.Stats
				f.chargePruned(&st)
				if st.ClustersPruned != int64(len(x.clusters)-i) || st.InterPruned != int64(x.live)-elems {
					t.Fatalf("trial %d: cut after %d pops charged %d clusters / %d elements, want %d / %d",
						trial, i, st.ClustersPruned, st.InterPruned, len(x.clusters)-i, int64(x.live)-elems)
				}
			}
			if !ok {
				if i != len(ref) {
					t.Fatalf("trial %d (%d×%d, λ=%v): frontier ended after %d of %d clusters", trial, ks, kt, lambda, i, len(ref))
				}
				break
			}
			wantLB, mine := want[c]
			if !mine {
				t.Fatalf("trial %d: pop %d yielded a cluster twice, or one outside the cursors' rows", trial, i)
			}
			delete(want, c)
			if math.Float64bits(lb) != math.Float64bits(wantLB) {
				t.Fatalf("trial %d: pop %d bound %v, lowerBound says %v", trial, i, lb, wantLB)
			}
			if lb < prev || lb != ref[i].lb {
				t.Fatalf("trial %d: pop %d bound %v after %v, eager sort has %v", trial, i, lb, prev, ref[i].lb)
			}
			prev = lb
			elems += int64(len(c.elems))
			f.pop(c)
		}
		// dtq was computed only for sides the stream refined: emitted, or
		// still in the heap under their true key.
		refined := map[int32]bool{}
		for _, tt := range f.tOrder {
			if refined[tt] {
				t.Fatalf("trial %d: side %d emitted twice", trial, tt)
			}
			refined[tt] = true
		}
		for _, e := range f.sides {
			refined[e.side] = e.exact
		}
		for tt, known := range sc.dtqKnown {
			if known && !refined[int32(tt)] {
				t.Fatalf("trial %d: dtq of side %d computed though the stream never refined it", trial, tt)
			}
		}
		x.putScratch(sc)
	}
}

// TestLazyVsEagerExact drives the lazy frontier search against the
// eager reference over random lambda and k, asserting bit-identical
// results (distances AND IDs — the heap's (dist, ID) tie-break makes
// the exact top-k a pure function of the candidate set).
func TestLazyVsEagerExact(t *testing.T) {
	f := build(t, dataset.TwitterLike, 1200, Config{Seed: 90})
	if !f.idx.lazyOrderable() {
		t.Fatal("fixture should take the lazy weak-bound path")
	}
	rng := rand.New(rand.NewPCG(90, 1))
	for trial := 0; trial < 40; trial++ {
		q := f.ds.Objects[rng.IntN(f.ds.Len())]
		k := 1 + rng.IntN(25)
		lambda := rng.Float64()
		want := searchEager(f.idx, nil, &q, k, lambda)
		got := f.idx.Search(&q, k, lambda, nil)
		requireIdentical(t, "exact", trial, want, got)
	}
}

// TestLazyVsEagerExactAfterDeletes repeats the equality check after a
// random ~25% of the objects are deleted, so shrunken clusters and
// stale radii flow through both implementations.
func TestLazyVsEagerExactAfterDeletes(t *testing.T) {
	f := build(t, dataset.TwitterLike, 1000, Config{Seed: 91})
	rng := rand.New(rand.NewPCG(91, 1))
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
		got := f.idx.Search(&q, k, lambda, nil)
		requireIdentical(t, "exact+deletes", trial, want, got)
	}
}

// TestLazyVsEagerEagerBoundPath covers the non-lazy ordering path (no
// usable projection → entries enter the frontier already refined): an
// angular-semantic space disables the weak bound, but the frontier
// machinery still runs.
func TestLazyVsEagerEagerBoundPath(t *testing.T) {
	ds, err := dataset.Generate(dataset.GenConfig{Kind: dataset.TwitterLike, Size: 800, Dim: 32, Seed: 52})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := metric.NewSpaceWithSemantic(ds, metric.AngularSemantic)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := Build(ds, sp, Config{Seed: 92})
	if err != nil {
		t.Fatal(err)
	}
	if idx.lazyOrderable() {
		t.Fatal("angular fixture should NOT take the lazy weak-bound path")
	}
	rng := rand.New(rand.NewPCG(92, 1))
	for trial := 0; trial < 25; trial++ {
		q := ds.Objects[rng.IntN(ds.Len())]
		k := 1 + rng.IntN(15)
		lambda := rng.Float64()
		want := searchEager(idx, nil, &q, k, lambda)
		got := idx.Search(&q, k, lambda, nil)
		requireIdentical(t, "angular", trial, want, got)
	}
}

// TestLazyVsEagerSeededChained exercises the sharded single-worker
// path: the dataset is split into disjoint partitions sharing one
// metric space's normalizers (exactly as BuildSharded arranges), the
// k-NN heap is chained partition to partition through SearchOptions.Seed,
// and the chained result must equal both the flat index's answer and
// an eager-reference chain over the same partitions.
func TestLazyVsEagerSeededChained(t *testing.T) {
	ds, err := dataset.Generate(dataset.GenConfig{Kind: dataset.TwitterLike, Size: 1100, Dim: 32, Seed: 53})
	if err != nil {
		t.Fatal(err)
	}
	space, err := metric.NewSpace(ds)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := Build(ds, space, Config{Seed: 93})
	if err != nil {
		t.Fatal(err)
	}
	const parts = 3
	partDS := make([]*dataset.Dataset, parts)
	for i := range partDS {
		partDS[i] = &dataset.Dataset{Dim: ds.Dim}
	}
	for i := range ds.Objects {
		p := partDS[int(ds.Objects[i].ID)%parts]
		p.Objects = append(p.Objects, ds.Objects[i])
	}
	idxs := make([]*Index, parts)
	for i, p := range partDS {
		// Per-part space copy: Build sets the per-part projected
		// normalizer on it while the shared DsMax/DtMax carry over —
		// mirroring BuildSharded.
		partSpace := *space
		idxs[i], err = Build(p, &partSpace, Config{Seed: 93 + uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewPCG(93, 1))
	for trial := 0; trial < 25; trial++ {
		q := ds.Objects[rng.IntN(ds.Len())]
		k := 1 + rng.IntN(20)
		lambda := rng.Float64()
		var lazy, eager []knn.Result
		for _, x := range idxs {
			lazy = x.SearchOptionsInto(nil, &q, k, lambda, SearchOptions{Seed: lazy}, nil)
			eager = searchEager(x, eager, &q, k, lambda)
		}
		want := flat.Search(&q, k, lambda, nil)
		requireIdentical(t, "chained lazy vs flat", trial, want, lazy)
		requireIdentical(t, "chained lazy vs chained eager", trial, eager, lazy)
	}
}

// TestLazyVsEagerApprox drives the frontier-based CSSIA against the
// eager-sorted reference. CSSIA's bounds are final from the start, so
// the frontier consumes clusters in exactly the eager order and the
// approximate answer — normally order-sensitive — must also match.
func TestLazyVsEagerApprox(t *testing.T) {
	f := build(t, dataset.TwitterLike, 1200, Config{Seed: 94})
	rng := rand.New(rand.NewPCG(94, 1))
	for trial := 0; trial < 40; trial++ {
		q := f.ds.Objects[rng.IntN(f.ds.Len())]
		k := 1 + rng.IntN(25)
		lambda := rng.Float64()
		want := searchApproxEager(f.idx, &q, k, lambda)
		got := f.idx.SearchApprox(&q, k, lambda, nil)
		requireIdentical(t, "approx", trial, want, got)
	}
}

// TestLazyFilteredRangeBoxAfterDeletes covers the remaining frontier
// consumers — filtered, range, and box search — against brute-force
// references on an index with random deletions.
func TestLazyFilteredRangeBoxAfterDeletes(t *testing.T) {
	f := build(t, dataset.TwitterLike, 900, Config{Seed: 95})
	rng := rand.New(rand.NewPCG(95, 1))
	deleted := make(map[uint32]bool)
	for i := range f.ds.Objects {
		if rng.Float64() < 0.2 {
			id := f.ds.Objects[i].ID
			if err := f.idx.Delete(id); err != nil {
				t.Fatal(err)
			}
			deleted[id] = true
		}
	}
	live := func(id uint32) bool { return !deleted[id] }
	for trial := 0; trial < 15; trial++ {
		q := f.ds.Objects[rng.IntN(f.ds.Len())]
		lambda := rng.Float64()
		k := 1 + rng.IntN(15)

		keep := make(map[uint32]bool)
		for i := range f.ds.Objects {
			if rng.Float64() < 0.4 {
				keep[f.ds.Objects[i].ID] = true
			}
		}
		allow := func(id uint32) bool { return keep[id] }
		wantF := filteredBrute(f, &q, k, lambda, func(id uint32) bool { return live(id) && allow(id) })
		gotF := f.idx.SearchFiltered(&q, k, lambda, allow, nil)
		requireIdentical(t, "filtered", trial, wantF, gotF)

		r := 0.1 + 0.3*rng.Float64()
		wantR := rangeBruteLive(f, &q, r, lambda, live)
		gotR := f.idx.RangeSearch(&q, r, lambda, nil)
		requireIdentical(t, "range", trial, wantR, gotR)

		loX, loY := rng.Float64(), rng.Float64()
		hiX, hiY := loX+rng.Float64(), loY+rng.Float64()
		wantB := boxBruteLive(f, &q, loX, loY, hiX, hiY, k, live)
		gotB := f.idx.SearchInBox(&q, loX, loY, hiX, hiY, k, nil)
		requireIdentical(t, "box", trial, wantB, gotB)
	}
}

// TestRoutedExactStressUnderRebuild is the combined property stress:
// an index with ~20% deletions serves exact searches carrying Route
// from several goroutines — each pinned bit-identical to the plain
// exact search (Route has no effect on exact queries) and to the eager
// reference — while RebuildFresh reconstructs replacement indexes
// (retraining their routers) in the background, exactly the core-level
// shape of the concurrency layer's non-blocking rebuild. The rebuilt
// index must then pass the same check. Run under -race this also proves
// the frontier shares no mutable state across queries beyond the pooled
// scratch.
func TestRoutedExactStressUnderRebuild(t *testing.T) {
	f := build(t, dataset.TwitterLike, 1500, Config{Seed: 96})
	if f.idx.Router() == nil {
		t.Fatal("fixture has no trained router")
	}
	rng := rand.New(rand.NewPCG(96, 1))
	for i := range f.ds.Objects {
		if rng.Float64() < 0.2 {
			if err := f.idx.Delete(f.ds.Objects[i].ID); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Background rebuilds: RebuildFresh never mutates f.idx, so the
	// searchers below keep reading it concurrently, race-free.
	rebuilt := make(chan *Index, 1)
	go func() {
		var last *Index
		for i := 0; i < 3; i++ {
			fresh, err := f.idx.RebuildFresh()
			if err != nil {
				t.Errorf("background rebuild %d: %v", i, err)
				rebuilt <- nil
				return
			}
			last = fresh
		}
		rebuilt <- last
	}()

	const searchers = 4
	var wg sync.WaitGroup
	for g := 0; g < searchers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(96, 2+uint64(g)))
			for trial := 0; trial < 20; trial++ {
				q := f.ds.Objects[rng.IntN(f.ds.Len())]
				k := 1 + rng.IntN(20)
				lambda := rng.Float64()
				want := searchEager(f.idx, nil, &q, k, lambda)
				var stRouted, stPlain metric.Stats
				got := f.idx.SearchOptionsInto(nil, &q, k, lambda, SearchOptions{Route: true}, &stRouted)
				plain := f.idx.Search(&q, k, lambda, &stPlain)
				if stRouted != stPlain || !slices.Equal(got, plain) {
					t.Errorf("searcher %d trial %d: Route changed an exact search:\nrouted %+v\nplain  %+v", g, trial, stRouted, stPlain)
					return
				}
				if len(got) != len(want) {
					t.Errorf("searcher %d trial %d: got %d results, want %d", g, trial, len(got), len(want))
					return
				}
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("searcher %d trial %d result %d: got {%d %v}, want {%d %v}",
							g, trial, i, got[i].ID, got[i].Dist, want[i].ID, want[i].Dist)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()

	fresh := <-rebuilt
	if fresh == nil {
		return // rebuild already reported its error
	}
	if fresh.Router() == nil {
		t.Fatal("rebuilt index has no retrained router")
	}
	for trial := 0; trial < 15; trial++ {
		q := f.ds.Objects[rng.IntN(f.ds.Len())]
		k := 1 + rng.IntN(20)
		lambda := rng.Float64()
		want := searchEager(fresh, nil, &q, k, lambda)
		got := fresh.SearchOptionsInto(nil, &q, k, lambda, SearchOptions{Route: true}, nil)
		requireIdentical(t, "rebuilt routed", trial, want, got)
		requireIdentical(t, "rebuilt routed vs plain", trial, fresh.Search(&q, k, lambda, nil), got)
	}
}

// rangeBruteLive is the reference range query over live objects.
func rangeBruteLive(f *fixture, q *dataset.Object, r, lambda float64, live func(uint32) bool) []knn.Result {
	var out []knn.Result
	for i := range f.ds.Objects {
		o := &f.ds.Objects[i]
		if !live(o.ID) {
			continue
		}
		if d := f.sp.Distance(nil, lambda, q, o); d <= r {
			out = append(out, knn.Result{ID: o.ID, Dist: d})
		}
	}
	knn.SortResults(out)
	return out
}

// boxBruteLive is the reference windowed semantic k-NN over live
// objects (lambda 0: pure semantic ranking inside the window).
func boxBruteLive(f *fixture, q *dataset.Object, loX, loY, hiX, hiY float64, k int, live func(uint32) bool) []knn.Result {
	h := knn.NewHeap(k)
	for i := range f.ds.Objects {
		o := &f.ds.Objects[i]
		if !live(o.ID) || o.X < loX || o.X > hiX || o.Y < loY || o.Y > hiY {
			continue
		}
		h.Push(knn.Result{ID: o.ID, Dist: f.sp.Semantic(nil, q.Vec, o.Vec)})
	}
	return h.Sorted()
}

// requireIdentical asserts two result lists are bit-identical: same
// length, same IDs, same distances, same order.
func requireIdentical(t *testing.T, ctx string, trial int, want, got []knn.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s trial %d: got %d results, want %d", ctx, trial, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s trial %d result %d: got {%d %v}, want {%d %v}",
				ctx, trial, i, got[i].ID, got[i].Dist, want[i].ID, want[i].Dist)
		}
	}
}
