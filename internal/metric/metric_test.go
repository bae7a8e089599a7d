package metric

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
)

func testDataset(t *testing.T, size int) *dataset.Dataset {
	t.Helper()
	ds, err := dataset.Generate(dataset.GenConfig{Kind: dataset.TwitterLike, Size: size, Dim: 16, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestNewSpaceRejectsEmpty(t *testing.T) {
	if _, err := NewSpace(&dataset.Dataset{}); err == nil {
		t.Fatal("expected error for empty dataset")
	}
}

func TestNormalizationBounds(t *testing.T) {
	ds := testDataset(t, 400)
	sp, err := NewSpace(ds)
	if err != nil {
		t.Fatal(err)
	}
	// Every pairwise distance must normalize into [0,1]: the corner
	// estimate is conservative.
	for i := 0; i < 50; i++ {
		a, b := &ds.Objects[i], &ds.Objects[(i*7+13)%ds.Len()]
		dsv := sp.SpatialXY(a.X, a.Y, b.X, b.Y)
		dtv := sp.SemanticVec(a.Vec, b.Vec)
		if dsv < 0 || dsv > 1 {
			t.Fatalf("ds out of [0,1]: %v", dsv)
		}
		if dtv < 0 || dtv > 1 {
			t.Fatalf("dt out of [0,1]: %v", dtv)
		}
	}
}

func TestDistanceCombination(t *testing.T) {
	ds := testDataset(t, 100)
	sp, _ := NewSpace(ds)
	q, o := &ds.Objects[0], &ds.Objects[1]
	var st Stats
	d0 := sp.Distance(&st, 0, q, o)
	d1 := sp.Distance(&st, 1, q, o)
	dHalf := sp.Distance(&st, 0.5, q, o)
	wantHalf := (d0 + d1) / 2
	if math.Abs(dHalf-wantHalf) > 1e-12 {
		t.Fatalf("λ=0.5 distance %v, want midpoint %v", dHalf, wantHalf)
	}
	// λ=1 must equal pure spatial, λ=0 pure semantic.
	if math.Abs(d1-sp.SpatialXY(q.X, q.Y, o.X, o.Y)) > 1e-12 {
		t.Fatal("λ=1 is not pure spatial")
	}
	if math.Abs(d0-sp.SemanticVec(q.Vec, o.Vec)) > 1e-12 {
		t.Fatal("λ=0 is not pure semantic")
	}
}

func TestStatsCounting(t *testing.T) {
	ds := testDataset(t, 10)
	sp, _ := NewSpace(ds)
	var st Stats
	sp.Distance(&st, 0.5, &ds.Objects[0], &ds.Objects[1])
	if st.VisitedObjects != 1 || st.SpatialDistCalcs != 1 || st.SemanticDistCalcs != 1 {
		t.Fatalf("stats after one Distance: %+v", st)
	}
	if st.DistCalcs() != 2 {
		t.Fatalf("DistCalcs = %d", st.DistCalcs())
	}
	var sum Stats
	sum.Add(&st)
	sum.Add(&st)
	if sum.VisitedObjects != 2 || sum.DistCalcs() != 4 {
		t.Fatalf("Add broken: %+v", sum)
	}
	// Nil stats must be tolerated.
	if d := sp.Distance(nil, 0.5, &ds.Objects[0], &ds.Objects[1]); d <= 0 {
		t.Fatalf("nil-stats distance = %v", d)
	}
}

// The λ-combination of two metrics is itself a metric: triangle
// inequality must hold for arbitrary objects and λ.
func TestCombinedTriangleInequality(t *testing.T) {
	ds := testDataset(t, 300)
	sp, _ := NewSpace(ds)
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 1))
		lambda := rng.Float64()
		a := &ds.Objects[rng.IntN(ds.Len())]
		b := &ds.Objects[rng.IntN(ds.Len())]
		c := &ds.Objects[rng.IntN(ds.Len())]
		dab := sp.Distance(nil, lambda, a, b)
		dbc := sp.Distance(nil, lambda, b, c)
		dac := sp.Distance(nil, lambda, a, c)
		if math.Abs(dab-sp.Distance(nil, lambda, b, a)) > 1e-12 {
			return false // symmetry
		}
		return dac <= dab+dbc+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSetProjectedNormalizer(t *testing.T) {
	sp := &Space{DsMax: 1, DtMax: 1}
	sp.SetProjectedNormalizerArena([]float32{0, 0, 3, 4}, 2)
	if sp.DtProjMax != 5 {
		t.Fatalf("DtProjMax = %v, want 5", sp.DtProjMax)
	}
	if d := sp.SemanticProjVec([]float32{0, 0}, []float32{3, 4}); d != 1 {
		t.Fatalf("projected distance = %v, want 1", d)
	}
	// Degenerate inputs fall back to 1.
	sp.SetProjectedNormalizerArena(nil, 2)
	if sp.DtProjMax != 1 {
		t.Fatalf("empty fallback = %v", sp.DtProjMax)
	}
	sp.SetProjectedNormalizerArena([]float32{2, 2, 2, 2}, 2)
	if sp.DtProjMax != 1 {
		t.Fatalf("zero-diameter fallback = %v", sp.DtProjMax)
	}
}

func TestDegenerateDatasetNormalizers(t *testing.T) {
	// All objects identical: normalizers must stay positive.
	objs := make([]dataset.Object, 5)
	for i := range objs {
		objs[i] = dataset.Object{ID: uint32(i), X: 0.5, Y: 0.5, Vec: []float32{1, 2, 3}}
	}
	sp, err := NewSpace(&dataset.Dataset{Objects: objs, Dim: 3})
	if err != nil {
		t.Fatal(err)
	}
	if sp.DsMax <= 0 || sp.DtMax <= 0 {
		t.Fatalf("degenerate normalizers: %+v", sp)
	}
	if d := sp.Distance(nil, 0.5, &objs[0], &objs[1]); d != 0 {
		t.Fatalf("identical objects should have zero distance, got %v", d)
	}
}

// SpatialXY's one-sqrt path must agree with math.Hypot to a few ulps
// (neither is correctly rounded) across ordinary magnitudes, and hand every
// input outside its safe range — coincident points, squares that
// underflow or overflow, NaN, ±Inf — to math.Hypot itself.
func TestSpatialXYMatchesHypot(t *testing.T) {
	sp := &Space{DsMax: 1.75}
	rng := rand.New(rand.NewPCG(8, 9))
	for trial := 0; trial < 20000; trial++ {
		scale := math.Pow(10, -130+260*rng.Float64())
		ax, ay := scale*rng.NormFloat64(), scale*rng.NormFloat64()
		bx, by := scale*rng.NormFloat64(), scale*rng.NormFloat64()
		got := sp.SpatialXY(ax, ay, bx, by)
		want := math.Hypot(ax-bx, ay-by) / sp.DsMax
		if math.Abs(got-want) > 1e-15*want {
			t.Fatalf("SpatialXY(%v,%v,%v,%v) = %v, Hypot form %v", ax, ay, bx, by, got, want)
		}
	}
	inf, nan := math.Inf(1), math.NaN()
	for _, p := range [][4]float64{
		{0.3, 0.7, 0.3, 0.7},   // coincident
		{1e-160, 0, 0, 1e-170}, // squares underflow
		{5e-324, 0, 0, 0},      // subnormal
		{1e200, 0, 0, -1e200},  // squares overflow
		{inf, 0, 0, 1}, {0, nan, 1, 1}, {inf, nan, 0, 0},
	} {
		got := sp.SpatialXY(p[0], p[1], p[2], p[3])
		want := math.Hypot(p[0]-p[2], p[1]-p[3]) / sp.DsMax
		if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("SpatialXY%v = %v, want %v", p, got, want)
		}
	}
}

// SpatialBeyond answers only for distances certainly above r: whenever it
// reports true, SpatialXY is finite and above r — on random pairs and
// limits straddling the true distance by a few ulps, and at the edges of
// the sqrt-free range — and it reports false outside that range, for
// coincident points and for a NaN limit.
func TestSpatialBeyondCertain(t *testing.T) {
	rng := rand.New(rand.NewPCG(61, 7))
	for i := 0; i < 200000; i++ {
		s := &Space{DsMax: math.Pow(10, float64(rng.IntN(41)-20)) * (1 + rng.Float64())}
		scale := math.Pow(10, float64(rng.IntN(281)-140))
		ax, ay := rng.NormFloat64()*scale, rng.NormFloat64()*scale
		bx, by := rng.NormFloat64()*scale, rng.NormFloat64()*scale
		ds := s.SpatialXY(ax, ay, bx, by)
		for _, r := range []float64{ds, math.Nextafter(ds, 0), math.Nextafter(ds, math.Inf(1)),
			ds * (1 - 1e-12), ds * (1 - 1e-8), ds * 0.5, -ds, 0, math.Inf(1), math.Inf(-1)} {
			if s.SpatialBeyond(ax, ay, bx, by, r) && !(ds > r && !math.IsInf(ds, 1)) {
				t.Fatalf("SpatialBeyond(%v, %v, %v, %v, %v) with DsMax %v: distance %v is not certainly above", ax, ay, bx, by, r, s.DsMax, ds)
			}
		}
		if ds > 0 && ds < 1e90 && ds*(1-1e-8) > 0 && math.Abs(ax-bx) > 1e-130 && math.Abs(ax-bx) < 1e130 {
			if !s.SpatialBeyond(ax, ay, bx, by, ds*(1-1e-8)) {
				t.Fatalf("SpatialBeyond misses a distance %v clearly above %v", ds, ds*(1-1e-8))
			}
		}
	}
	s := &Space{DsMax: 1}
	for _, tc := range []struct {
		ax, ay, bx, by, r float64
		want              bool
	}{
		{0.3, 0.3, 0.3, 0.3, -1, false},   // coincident: squared length 0
		{1e-140, 0, 0, 0, -1, false},      // squared length 1e-280, the range's edge
		{2e-140, 0, 0, 0, -1, true},       // just inside
		{2e-140, 0, 0, 0, 1e-140, true},   // inside, and above r
		{1e140, 0, 0, 0, -1, false},       // squared length 1e280, the other edge
		{7e139, 0, 0, 0, 1e139, true},     // just inside
		{math.NaN(), 0, 0, 0, -1, false},  // NaN coordinate
		{math.Inf(1), 0, 0, 0, -1, false}, // infinite coordinate
		{0.5, 0, 0, 0, math.NaN(), false}, // NaN limit
		{0.5, 0, 0, 0, 0.5, false},        // the distance itself
		{0.5, 0, 0, 0, 0.4999999, true},   // clearly below it
	} {
		if got := s.SpatialBeyond(tc.ax, tc.ay, tc.bx, tc.by, tc.r); got != tc.want {
			t.Errorf("SpatialBeyond(%v, %v, %v, %v, %v) = %v, want %v", tc.ax, tc.ay, tc.bx, tc.by, tc.r, got, tc.want)
		}
	}
	// A normalizer so small that the distance overflows: never beyond.
	if tiny := (&Space{DsMax: 1e-200}); tiny.SpatialBeyond(1e110, 0, 0, 0, -1) {
		t.Errorf("SpatialBeyond reports a distance of %v as finite", tiny.SpatialXY(1e110, 0, 0, 0))
	}
}
