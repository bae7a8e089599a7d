package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
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

// FuzzAnchorGatePass: the gate pass never drops a row the row loop
// keeps. A one-row cluster is entered at bound u, and if gateRows leaves
// the row out without the suffix cut taking it, the row loop's anchor
// cut must hold for it: metric.Combine(λ, ds, semLower) > u with the ds
// SpatialXY computes — at the edges of the sqrt-free range and past
// them, for coincident points, huge and tiny normalizers, λ at and near
// 0 and 1, NaN and infinite operands, and any anchor operands.
func FuzzAnchorGatePass(f *testing.F) {
	f.Add(0.5, 0.5, 0.52, 0.49, 1.0, 0.5, 0.05, 0.3, 0.1, -0.2)
	f.Add(0.5, 0.5, 0.9, 0.1, 1.3, 0.0, 0.2, 0.8, 0.1, 0.0)
	f.Add(0.5, 0.5, 0.9, 0.1, 1.3, 1e-12, 0.2, 0.8, 0.1, 0.0)
	f.Add(0.5, 0.5, 0.9, 0.1, 1.3, 1.0, 0.2, 0.8, 0.1, 0.0)
	f.Add(1e-140, 0.0, 0.0, 0.0, 1.0, 0.5, 0.0, 0.0, 0.0, 0.0)
	f.Add(2e-140, 0.0, 0.0, 0.0, 1e-150, 0.5, 1e-10, 0.0, 0.0, 0.0)
	f.Add(7e139, 0.0, 0.0, 0.0, 1.0, 0.5, 1e139, 0.0, 0.0, 0.0)
	f.Add(1e140, 0.0, 0.0, 0.0, 1e-200, 0.0, 0.5, 3.0, 0.0, 0.0)
	f.Add(0.3, 0.3, 0.3, 0.3, 1.0, 0.5, 0.0, 0.0, 0.0, 0.0)
	f.Add(0.1, 0.2, 0.7, 0.9, 1.0, 0.5, math.Inf(1), 0.4, 0.2, 0.1)
	f.Add(0.1, 0.2, 0.7, 0.9, 1.0, 0.5, math.NaN(), 0.4, 0.2, 0.1)
	f.Add(0.1, 0.2, math.Inf(1), 0.9, 1.0, 0.5, 0.3, 0.4, 0.2, 0.1)
	f.Add(0.1, 0.2, 0.7, 0.9, 1e300, 0.999999, 1e-300, 1e300, 1e-300, -1e300)
	f.Fuzz(func(t *testing.T, qx, qy, ox, oy, dsMax, lambda, u, dq, d, floor float64) {
		if !(dsMax > 0) || math.IsInf(dsMax, 1) || !(lambda >= 0 && lambda <= 1) {
			t.Skip()
		}
		sp := &metric.Space{DsMax: dsMax, DtMax: 1}
		set := &Anchors{pts: [][]float32{{0}}}
		x := &Index{baseIndex: &baseIndex{space: sp, xArena: []float64{ox}, yArena: []float64{oy},
			anchors: &anchorArena{set: set, id: []uint8{0}, dist: []float32{float32(d)}}}}
		c := &hybrid{elems: []element{{idx: 0, ds: math.Inf(1), dt: 0}}, headDs: math.Inf(1)}
		ad := &queryAnchors{set: set, dtMax: sp.DtMax}
		ad.dq[0] = dq
		sc := &searchScratch{anchorShared: ad}
		q := &dataset.Object{X: qx, Y: qy}
		_, g, keep, ok := x.enterCluster(sc, q, lambda, c, 0, floor, u, true, nil)
		if !ok || len(keep) == 1 || g.suffixBound(&c.elems[0]) > u {
			return // cut whole, kept, or cut by the suffix bound
		}
		ds := sp.SpatialXY(qx, qy, ox, oy)
		if lb := g.semLower(0, &c.elems[0]); !(metric.Combine(lambda, ds, lb) > u) {
			t.Fatalf("dropped a row the row loop keeps: λ=%v ds=%v semLower=%v combined %v, bound %v",
				lambda, ds, lb, metric.Combine(lambda, ds, lb), u)
		}
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
// indexes, where the eager reference applies, and short of gateFarXY —
// CSSIA against the paper-faithful loop. Every cluster scan is also held
// to the one-pass loop (requireScansMatchOnePass), whose count it
// returns.
func requireGateExact(t *testing.T, ctx string, x *Index) (fellDroppedCut int) {
	t.Helper()
	if err := x.CheckInvariants(); err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	sc, live := liveSet(x)
	n := live.Len()
	queries := make([]dataset.Object, 0, 5+len(gateNearXY)+len(gateFarXY))
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
		queries = append(queries, q)
	}
	// Queries whose squared distance to a row at the origin sits at the
	// low edge of the gate's sqrt-free range, and queries so far out that
	// the squared distance to every row sits at or past its high edge.
	edge := func(xy [][2]float64) []dataset.Object {
		var qs []dataset.Object
		for i, p := range xy {
			q := live.Objects[(i*17+3)%n]
			q.X, q.Y = p[0], p[1]
			qs = append(qs, q)
		}
		return qs
	}
	queries = append(queries, edge(gateNearXY)...)
	near := len(queries)
	queries = append(queries, edge(gateFarXY)...)
	fellDroppedCut = requireScansMatchOnePass(t, ctx, x, queries)
	allow := func(id uint32) bool { return id%3 != 0 }
	kept := &dataset.Dataset{Dim: live.Dim}
	for _, o := range live.Objects {
		if allow(o.ID) {
			kept.Objects = append(kept.Objects, o)
		}
	}
	keptScan := scan.New(kept, x.space)
	for qi, q := range queries {
		for _, lambda := range gateLambdas {
			for _, k := range []int{1, 10, n + 5} {
				ref := x.SearchAblated(&q, k, lambda, AblationOptions{}, nil)
				identicalResults(t, ctx+": ablated vs scan", sc.Search(&q, k, lambda, nil), ref)
				identicalResults(t, fmt.Sprintf("%s: gate vs ablated q%d λ=%v k=%d", ctx, qi, lambda, k), ref, x.Search(&q, k, lambda, nil))
				if x.delta == nil && qi < near {
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
			identicalResults(t, ctx+": range", inRange, rangeSearch(x, &q, r, lambda, nil))
			identicalResults(t, ctx+": filtered", keptScan.Search(&q, 10, lambda, nil), filteredSearch(x, &q, 10, lambda, allow, nil))
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
			identicalResults(t, ctx+": box", want, boxSearch(x, &q, Window{loX, loY, hiX, hiY}, k, nil))
		}
	}
	return fellDroppedCut
}

// gateLambdas are the weights the gated loops are held at: the edges,
// a weight so small that 1/λ is huge, and the interior.
var gateLambdas = []float64{0, 1e-12, 0.1, 0.5, 0.9, 1}

// gateNearXY are query locations at the low edge of SpatialBeyond's
// range for a row at the origin: a squared length of 1e-280 sits on the
// edge, 4e-280 just inside. gateFarXY sit at and around the high edge
// for every row of the unit square: 4.9e279 just inside, 1e280 on it,
// 2e282 past it. Far out the semantic term vanishes below the spatial
// one's last bit, so many rows tie the k-th distance and win on their
// ID: abandonLimit's slack keeps the exact reads' kernels from
// abandoning them. CSSIA is not held to the eager loop there, because
// its d < U push drops such ties by design.
var (
	gateNearXY = [][2]float64{{1e-140, 0}, {2e-140, 0}}
	gateFarXY  = [][2]float64{{7e139, 0}, {1e140, 0}, {1e141, 1e141}}
)

// onePassScan is the exact read's row loop as one pass — every per-row
// check on every row of c, in block order, against the current bound —
// which scanCluster's gate pass replaced. It is the reference for
// scanCluster's pushes and counters. ev has a byte per row reached: 'c'
// the suffix cut (the last), 't' a tombstone, 'r' a restricted row, 'a'
// an anchor cut, 'e' an abandoned kernel, 'p' a push, 'n' a row beyond
// the radius; keep is what the gate pass kept at the entry bound.
func onePassScan(x *Index, sc *searchScratch, q *dataset.Object, lambda float64, c *hybrid, dsqC, dtqC float64, h *knn.Heap, ub float64, st *metric.Stats) (ev []byte, keep []int32) {
	st.ClustersExamined++
	u0, full0 := cappedBound(h, ub)
	blk, g, keep, ok := x.enterCluster(sc, q, lambda, c, dsqC, dtqC, u0, full0, st)
	if !ok {
		return nil, nil
	}
	keep = slices.Clone(keep)
	tombs := x.deltaTombs()
	rs := &sc.rs
	for ei := range c.elems {
		e := &c.elems[ei]
		u, full := cappedBound(h, ub)
		if full && g.suffixBound(e) > u {
			st.IntraPruned += int64(len(c.elems) - ei)
			return append(ev, 'c'), keep
		}
		if tombs.get(e.idx) {
			ev = append(ev, 't')
			continue
		}
		if rs.rows && !rs.admits(x.ids[e.idx], blk.xs[ei], blk.ys[ei]) {
			st.IntraPruned++
			ev = append(ev, 'r')
			continue
		}
		st.VisitedObjects++
		ds := x.space.Spatial(st, q.X, q.Y, blk.xs[ei], blk.ys[ei])
		if full && metric.Combine(lambda, ds, g.semLower(ei, e)) > u {
			st.AnchorPruned++
			ev = append(ev, 'a')
			continue
		}
		var dt float64
		if full && lambda < 1 {
			var ok bool
			if dt, ok = x.space.SemanticBound(st, q.Vec, x.vecAt(e.idx), abandonLimit(u, lambda, ds)); !ok {
				ev = append(ev, 'e')
				continue
			}
		} else {
			dt = x.space.Semantic(st, q.Vec, x.vecAt(e.idx))
		}
		if d := metric.Combine(lambda, ds, dt); !(d > rs.radius) {
			h.Push(knn.Result{ID: x.ids[e.idx], Dist: d})
			ev = append(ev, 'p')
		} else {
			ev = append(ev, 'n')
		}
	}
	return ev, keep
}

// requireScansMatchOnePass scans every non-empty cluster of x for each
// query and weight, from a heap seeded at bounds drawn from the
// cluster's own distances (so that pushes lower the bound mid-scan),
// from a radius alone, and under a row predicate and a window, and holds
// scanCluster to onePassScan: the same heap, counted or not, and the
// same counters. It returns how many of those scans dropped rows between
// two kept rows after the bound fell mid-scan, and then ended at the
// suffix cut.
func requireScansMatchOnePass(t *testing.T, ctx string, x *Index, queries []dataset.Object) (fellDroppedCut int) {
	t.Helper()
	tombs := x.deltaTombs()
	allow := func(id uint32) bool { return id%3 != 0 }
	for qi := range queries {
		q := &queries[qi]
		scs := [3]*searchScratch{x.getScratch(), x.getScratch(), x.getScratch()}
		for _, lambda := range gateLambdas {
			for ci, c := range x.clusters {
				if len(c.elems) == 0 {
					continue
				}
				dsqC := x.space.SpatialXY(q.X, q.Y, x.sCentX[c.s], x.sCentY[c.s])
				dtqC := x.space.SemanticVec(q.Vec, x.tCent[c.t])
				var dists []float64
				for _, e := range c.elems {
					if !tombs.get(e.idx) {
						dists = append(dists, metric.Combine(lambda, x.space.SpatialXY(q.X, q.Y, x.xArena[e.idx], x.yArena[e.idx]), x.space.SemanticVec(q.Vec, x.vecAt(e.idx))))
					}
				}
				if len(dists) == 0 {
					continue
				}
				slices.Sort(dists)
				at := func(f float64) float64 { return dists[int(f*float64(len(dists)-1))] }
				for vi, v := range []struct {
					k      int
					seed   float64 // seeds fill the heap at this bound; NaN for none
					radius float64
					allow  bool
					window bool
				}{
					{3, at(0.3), math.Inf(1), false, false},
					{3, at(0.7), math.Inf(1), false, false},
					{1, at(0.9), math.Inf(1), false, false},
					{10, math.NaN(), at(0.5), false, false},
					{3, at(0.7), math.Inf(1), true, false},
					{3, at(0.7), math.Inf(1), false, true},
				} {
					var heaps [3]knn.Heap
					var sts [2]metric.Stats
					var ev []byte
					var u0 float64
					var keep []int32
					for r, sc := range scs {
						sc.rs = restriction{radius: v.radius}
						if v.allow {
							sc.rs.allow, sc.rs.rows = allow, true
						}
						if v.window {
							sc.rs.window, sc.rs.rows = &Window{q.X - 0.1, q.Y - 0.1, q.X + 0.15, q.Y + 0.2}, true
						}
						h := &heaps[r]
						h.Reset(v.k)
						if !math.IsNaN(v.seed) {
							for i := 0; i < v.k; i++ {
								h.Push(knn.Result{ID: uint32(2_000_000_000 + i), Dist: v.seed})
							}
						}
						switch r {
						case 0:
							u0, _ = cappedBound(h, sc.rs.radius)
							ev, keep = onePassScan(x, sc, q, lambda, c, dsqC, dtqC, h, sc.rs.radius, &sts[0])
						case 1:
							x.scanCluster(sc, q, lambda, c, dsqC, dtqC, h, sc.rs.radius, nil, &sts[1])
						case 2:
							x.scanCluster(sc, q, lambda, c, dsqC, dtqC, h, sc.rs.radius, nil, nil)
						}
					}
					where := fmt.Sprintf("%s: q%d λ=%v cluster %d case %d", ctx, qi, lambda, ci, vi)
					want := heaps[0].AppendSorted(nil)
					identicalResults(t, where+" counted", want, heaps[1].AppendSorted(nil))
					identicalResults(t, where+" uncounted", want, heaps[2].AppendSorted(nil))
					if sts[0] != sts[1] {
						t.Fatalf("%s: counters %+v, the one-pass loop's %+v", where, sts[1], sts[0])
					}
					if u1, _ := heaps[0].Bound(); u1 < u0 && len(ev) > 0 && ev[len(ev)-1] == 'c' && droppedAfterFall(ev, keep) {
						fellDroppedCut++
					}
				}
			}
		}
		for _, sc := range scs {
			x.putScratch(sc)
		}
	}
	return fellDroppedCut
}

// droppedAfterFall reports whether, after the first push of a one-pass
// scan's events ev, the gate pass's kept rows keep skip a row between
// two of them.
func droppedAfterFall(ev []byte, keep []int32) bool {
	fell := slices.Index(ev, 'p')
	if fell < 0 {
		return false
	}
	for i := 1; i < len(keep); i++ {
		if int(keep[i-1]) >= fell && keep[i]-keep[i-1] > 1 {
			return true
		}
	}
	return false
}

// deleteClusters removes every member of the first few hybrid clusters.
func deleteClusters(t *testing.T, x *Index, clusters int) {
	t.Helper()
	var ids []uint32
	for _, c := range x.clusters[:clusters] {
		for _, e := range c.elems {
			ids = append(ids, x.ids[e.idx])
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
// churned (its own overlay's inserts and tombstones), behind a clone's
// write overlay (tombstoned clusters, overlay inserts), compacted,
// reloaded and rebuilt — on both corpus kinds, and under the angular
// metric, where no anchor applies and only the component-wise cut runs.
func TestGateBitIdenticalAcrossStates(t *testing.T) {
	for _, tc := range []struct {
		name string
		kind dataset.Kind
		sem  metric.SemanticMetric
		cfg  Config
	}{
		{"twitter", dataset.TwitterLike, metric.EuclideanSemantic, Config{Seed: 181}},
		{"yelp", dataset.YelpLike, metric.EuclideanSemantic, Config{Seed: 182}},
		// Pinned counts: under the default ones the rebuilt index holds
		// two objects at angular distance 0 in clusters of equal bound, and
		// which CSSIA meets first at k = 1 is a tie neither the frontier nor
		// the eager oracle orders.
		{"twitter-angular", dataset.TwitterLike, metric.AngularSemantic, Config{Seed: 183, Ks: 7, Kt: 7}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ds, err := dataset.Generate(dataset.GenConfig{Kind: tc.kind, Size: 500, Dim: 32, Seed: 57})
			if err != nil {
				t.Fatal(err)
			}
			// A row at the origin, for gateNearXY's queries.
			origin := ds.Objects[11]
			origin.ID, origin.X, origin.Y = 950_000, 0, 0
			ds.Objects = append(ds.Objects, origin)
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
			if requireGateExact(t, "fresh", x) == 0 {
				t.Fatal("no cluster scan dropped rows between two kept rows after its bound fell and then cut")
			}

			flat := saveLoad(t, x)
			deleteClusters(t, flat, 4)
			insertFresh(t, flat, ds.Objects, 900_000, 40)
			requireGateExact(t, "churned", flat)

			over := cloneHeader(x)
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

// The anchor arena follows every maintenance path: new rows enter the
// overlay unanchored, deletes take them out of the count, and Compact,
// Load and RebuildFresh anchor everything again. CheckInvariants (arena
// lengths, ids, stored distances, every base row anchored) holds at
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

	over := cloneHeader(x)
	insertFresh(t, over, f.ds.Objects, 810_000, 10)
	if err := over.Delete(800_004); err != nil { // an insert the parent buffered
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
	step("compacted", compacted, 0)
	requireClusterMajor(t, "compacted", compacted)

	loaded := saveLoad(t, compacted)
	step("loaded", loaded, 0)
	requireClusterMajor(t, "loaded", loaded)

	rebuilt, err := compacted.RebuildFresh()
	if err != nil {
		t.Fatal(err)
	}
	step("rebuilt", rebuilt, 0)
}

// Every visited row is either skipped by the gate or costs exactly one
// semantic kernel. A radius bounds the read from the start, so every
// cluster scan is a bounded one.
func TestAnchorStatsPartitionVisited(t *testing.T) {
	f := build(t, dataset.TwitterLike, 1500, Config{Seed: 185})
	r := 0.3
	var st metric.Stats
	for qi := 0; qi < 20; qi++ {
		q := f.ds.Objects[(qi*37+5)%f.ds.Len()]
		f.idx.SearchOptionsInto(nil, &q, 10, 0.5, SearchOptions{Radius: &r}, &st)
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
	if len(set.pts) != anchorCount {
		t.Fatalf("%d anchors, want %d whatever Kt", len(set.pts), anchorCount)
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

// The anchor count is one constant, not a function of the cluster
// counts: an explicit Kt = 8 build, a shard built over a set fitted on
// the whole corpus (BuildSharded's shape), that shard saved and
// reloaded (Load fits its own set) and a rebuilt index all carry it.
func TestAnchorCountFixed(t *testing.T) {
	ds, err := dataset.Generate(dataset.GenConfig{Kind: dataset.TwitterLike, Size: 1200, Dim: 32, Seed: 59})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := metric.NewSpace(ds)
	if err != nil {
		t.Fatal(err)
	}
	want := func(ctx string, x *Index) {
		t.Helper()
		if got := len(x.anchors.set.pts); got != anchorCount {
			t.Fatalf("%s: %d anchors, want %d", ctx, got, anchorCount)
		}
		if err := x.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
	}
	flatSpace := *sp
	flat, err := Build(ds, &flatSpace, Config{Seed: 188, Kt: 8})
	if err != nil {
		t.Fatal(err)
	}
	want("Kt = 8", flat)

	part := &dataset.Dataset{Dim: ds.Dim}
	for i := 0; i < ds.Len(); i += 4 {
		part.Objects = append(part.Objects, ds.Objects[i])
	}
	partSpace := *sp
	shard, err := BuildWithAnchors(part, &partSpace, Config{Seed: 189}, FitAnchors(ds, sp, Config{Seed: 189}))
	if err != nil {
		t.Fatal(err)
	}
	want("shard", shard)
	want("loaded shard", saveLoad(t, shard))

	want("rebuilt", rebuilt(t, flat))
}

// gatedLoops runs the five gated reads on x for one query — exact k-NN,
// CSSIA, and the exact read under a radius, a window and a row
// predicate — and returns each one's answer and work counters.
func gatedLoops(x *Index, q *dataset.Object, k int, lambda float64) (res [5][]knn.Result, st [5]metric.Stats) {
	res[0] = x.SearchOptionsInto(nil, q, k, lambda, SearchOptions{}, &st[0])
	res[1] = x.SearchApprox(q, k, lambda, &st[1])
	res[2] = rangeSearch(x, q, 0.15, lambda, &st[2])
	res[3] = boxSearch(x, q, Window{q.X - 0.2, q.Y - 0.15, q.X + 0.25, q.Y + 0.3}, k, &st[3])
	res[4] = filteredSearch(x, q, k, lambda, func(id uint32) bool { return id%3 != 0 }, &st[4])
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
		c := saveLoad(t, x)
		deleteClusters(t, c, 4)
		insertFresh(t, c, pool, 900_000, 60)
		return c
	}
	compare("churned", churn(on.idx), churn(off.idx), nil)

	overlay := func(x *Index) *Index {
		o := cloneHeader(x)
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
			p := min(dim, anchorPrefixDims)
			a := &Anchors{pts: pts, rank: vec.NewPrefix(pts, p)}
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
					for j := 0; j < p; j++ {
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
