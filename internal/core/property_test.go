package core

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/metric"
	"repro/internal/scan"
)

// Property (Lemma 4.3): for every hybrid cluster and every query, the
// lower bound L(q,C) never exceeds d(q,o) for any member o.
func TestLowerBoundIsValid(t *testing.T) {
	f := build(t, dataset.TwitterLike, 600, Config{Seed: 40})
	x := f.idx
	check := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 1))
		lambda := rng.Float64()
		q := &f.ds.Objects[rng.IntN(f.ds.Len())]
		for _, c := range x.clusters {
			dsq := x.space.SpatialXY(q.X, q.Y, x.sCentX[c.s], x.sCentY[c.s])
			dtq := x.space.SemanticVec(q.Vec, x.tCent[c.t])
			lb := lowerBound(lambda, dsq, x.sRad[c.s], dtq, x.tRad[c.t])
			for _, e := range c.elems {
				o := x.row(e.idx)
				d := x.space.Distance(nil, lambda, q, &o)
				if d < lb-1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// Property (§4.3): the array threshold is a conservative approximation of
// d(o,C) for every λ, i.e. d(o,C) ≤ λ·e.ds + (1−λ)·e.dt.
func TestArrayThresholdConservative(t *testing.T) {
	f := build(t, dataset.YelpLike, 500, Config{Seed: 41})
	x := f.idx
	for _, c := range x.clusters {
		for _, lambda := range []float64{0, 0.25, 0.5, 0.75, 1} {
			for _, e := range c.elems {
				m := member{ds: x.spatialToCent(e.idx, c.s), dt: x.semanticToCent(e.idx, c.t)}
				dOC := lambda*m.ds + (1-lambda)*m.dt
				bound := lambda*e.ds + (1-lambda)*e.dt
				if dOC > bound+1e-9 {
					t.Fatalf("threshold not conservative: d(o,C)=%v > bound=%v (λ=%v)", dOC, bound, lambda)
				}
			}
		}
	}
}

// Property: buildElems emits exactly one element per member with
// monotonically non-increasing, conservative thresholds, and the array
// is the paper's Threshold-Algorithm merge of the two lists (taMerge),
// for arbitrary member sets — ties included (distances drawn from a few
// values).
func TestBuildElemsProperties(t *testing.T) {
	check := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 2))
		n := 1 + rng.IntN(60)
		levels := 1 + rng.IntN(8)
		orig := make([]member, n)
		for i := range orig {
			orig[i] = member{
				idx: uint32(i),
				ds:  float64(rng.IntN(levels)) / float64(levels),
				dt:  rng.Float64(),
			}
			if seed%2 == 0 {
				orig[i].dt = float64(rng.IntN(levels)) / float64(levels)
			}
		}
		c := &hybrid{}
		c.buildElems(append([]member(nil), orig...))
		if len(c.elems) != n || !slices.Equal(c.elems, taMerge(orig)) {
			return false
		}
		seen := make(map[uint32]bool, n)
		prevDs, prevDt := 2.0, 2.0
		for _, e := range c.elems {
			if seen[e.idx] {
				return false
			}
			seen[e.idx] = true
			if e.ds > prevDs || e.dt > prevDt {
				return false
			}
			prevDs, prevDt = e.ds, e.dt
			m := orig[e.idx]
			if e.ds < m.ds || e.dt < m.dt {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBuildElemsEmpty(t *testing.T) {
	c := &hybrid{}
	c.buildElems(nil)
	if c.elems != nil {
		t.Fatalf("empty cluster: elems %v", c.elems)
	}
}

// taMerge is Alg. 1's merge written out: sort a copy of ms into L_s and
// another into L_t, then take one member of each per round, appending
// each object at its first occurrence with the round's threshold pair.
func taMerge(ms []member) []element {
	ls, lt := slices.Clone(ms), slices.Clone(ms)
	slices.SortFunc(ls, byDsCmp)
	slices.SortFunc(lt, byDtCmp)
	seen := map[uint32]bool{}
	var out []element
	for r := range ls {
		for _, m := range []member{ls[r], lt[r]} {
			if !seen[m.idx] {
				seen[m.idx] = true
				out = append(out, element{idx: m.idx, ds: ls[r].ds, dt: lt[r].dt})
			}
		}
	}
	return out
}

func TestBuildElemsDuplicateDistances(t *testing.T) {
	// All-equal distances must still yield one element per member, in
	// storage order: both lists fall back to it.
	ms := make([]member, 10)
	for i := range ms {
		ms[i] = member{idx: uint32(9 - i), ds: 0.5, dt: 0.5}
	}
	c := &hybrid{}
	c.buildElems(ms)
	if len(c.elems) != 10 {
		t.Fatalf("got %d elems", len(c.elems))
	}
	for j, e := range c.elems {
		if e.idx != uint32(j) {
			t.Fatalf("elem %d is object %d, want storage order", j, e.idx)
		}
	}
}

// Property: lowerBound is non-negative and zero when q is inside both
// balls; it equals the Eq. 4 case expressions.
func TestLowerBoundCases(t *testing.T) {
	check := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 3))
		lambda := rng.Float64()
		dsq, rs := rng.Float64(), rng.Float64()
		dtq, rt := rng.Float64(), rng.Float64()
		lb := lowerBound(lambda, dsq, rs, dtq, rt)
		if lb < 0 {
			return false
		}
		if dsq < rs && dtq < rt && lb != 0 {
			return false
		}
		if dsq >= rs && dtq >= rt {
			want := lambda*(dsq-rs) + (1-lambda)*(dtq-rt)
			if math.Abs(lb-want) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property-style differential test: on fully random (unclustered) data —
// a worst case for any clustering index — CSSI remains exact.
func TestCSSIExactOnRandomData(t *testing.T) {
	check := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 4))
		n := 80 + rng.IntN(200)
		objs := make([]dataset.Object, n)
		for i := range objs {
			v := make([]float32, 10)
			for j := range v {
				v[j] = float32(rng.NormFloat64())
			}
			objs[i] = dataset.Object{ID: uint32(i), X: rng.Float64(), Y: rng.Float64(), Vec: v}
		}
		ds := &dataset.Dataset{Objects: objs, Dim: 10}
		sp, err := metric.NewSpace(ds)
		if err != nil {
			return false
		}
		idx, err := Build(ds, sp, Config{Seed: seed, Ks: 3 + int(seed%5), Kt: 3 + int(seed%4)})
		if err != nil {
			return false
		}
		sc := scan.New(ds, sp)
		lambda := rng.Float64()
		k := 1 + rng.IntN(20)
		q := objs[rng.IntN(n)]
		want := sc.Search(&q, k, lambda, nil)
		got := idx.Search(&q, k, lambda, nil)
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i].Dist != want[i].Dist {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
