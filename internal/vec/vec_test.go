package vec

import (
	"encoding/binary"
	"math"
	"math/rand/v2"
	"strings"
	"testing"
	"testing/quick"
)

func almostEq(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps*(1+math.Abs(a)+math.Abs(b))
}

func TestDot(t *testing.T) {
	a := []float32{1, 2, 3}
	b := []float32{4, -5, 6}
	if got := Dot(a, b); got != 12 {
		t.Fatalf("Dot = %v, want 12", got)
	}
}

func TestDotEmpty(t *testing.T) {
	if got := Dot(nil, nil); got != 0 {
		t.Fatalf("Dot(nil,nil) = %v, want 0", got)
	}
}

func TestDotMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	Dot([]float32{1}, []float32{1, 2})
}

func TestSqDistAndDist(t *testing.T) {
	a := []float32{0, 0}
	b := []float32{3, 4}
	if got := SqDist(a, b); got != 25 {
		t.Fatalf("SqDist = %v, want 25", got)
	}
	if got := Dist(a, b); got != 5 {
		t.Fatalf("Dist = %v, want 5", got)
	}
}

func TestDistToSelfIsZero(t *testing.T) {
	a := []float32{1.5, -2.25, 7}
	if got := Dist(a, a); got != 0 {
		t.Fatalf("Dist(a,a) = %v, want 0", got)
	}
}

func TestNorm(t *testing.T) {
	if got := Norm([]float32{3, 4}); got != 5 {
		t.Fatalf("Norm = %v, want 5", got)
	}
	if got := Norm(nil); got != 0 {
		t.Fatalf("Norm(nil) = %v, want 0", got)
	}
}

func TestZeroClone(t *testing.T) {
	a := []float32{1, 2, 3}
	c := Clone(a)
	Zero(a)
	if a[0] != 0 || a[2] != 0 {
		t.Fatalf("Zero result %v", a)
	}
	if c[0] != 1 || c[2] != 3 {
		t.Fatalf("Clone aliases original: %v", c)
	}
}

func TestMean(t *testing.T) {
	rows := [][]float32{{1, 2}, {3, 4}, {5, 6}}
	dst := make([]float32, 2)
	Mean(dst, rows)
	if dst[0] != 3 || dst[1] != 4 {
		t.Fatalf("Mean = %v, want [3 4]", dst)
	}
}

func TestMeanEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on empty Mean")
		}
	}()
	Mean(make([]float32, 2), nil)
}

func TestMinMax(t *testing.T) {
	rows := [][]float32{{1, 9}, {-2, 4}, {5, 6}}
	lo, hi := MinMax(rows)
	if lo[0] != -2 || lo[1] != 4 {
		t.Fatalf("lo = %v", lo)
	}
	if hi[0] != 5 || hi[1] != 9 {
		t.Fatalf("hi = %v", hi)
	}
}

func TestArgNearest(t *testing.T) {
	cents := [][]float32{{0, 0}, {10, 10}, {5, 5}}
	i, d := ArgNearest([]float32{4, 4}, cents)
	if i != 2 {
		t.Fatalf("ArgNearest index = %d, want 2", i)
	}
	if d != 2 {
		t.Fatalf("ArgNearest dist = %v, want 2", d)
	}
}

func randVec(rng *rand.Rand, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	return v
}

// Property: Euclidean distance is symmetric and satisfies the triangle
// inequality.
func TestDistMetricProperties(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 7))
		n := 1 + r.IntN(64)
		a, b, c := randVec(rng, n), randVec(rng, n), randVec(rng, n)
		if !almostEq(Dist(a, b), Dist(b, a), 1e-9) {
			return false
		}
		return Dist(a, c) <= Dist(a, b)+Dist(b, c)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Dot is bilinear in its first argument.
func TestDotLinearity(t *testing.T) {
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 3))
		n := 1 + r.IntN(32)
		a, b, c := randVec(r, n), randVec(r, n), randVec(r, n)
		sum := Clone(a)
		for i, v := range b {
			sum[i] += v
		}
		return almostEq(Dot(sum, c), Dot(a, c)+Dot(b, c), 1e-5)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: mean minimizes the sum of squared distances over the members
// compared with any member itself.
func TestMeanIsCenter(t *testing.T) {
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 11))
		n := 1 + r.IntN(16)
		m := 2 + r.IntN(20)
		rows := make([][]float32, m)
		for i := range rows {
			rows[i] = randVec(r, n)
		}
		mean := make([]float32, n)
		Mean(mean, rows)
		var sseMean float64
		for _, row := range rows {
			sseMean += SqDist(row, mean)
		}
		for _, cand := range rows {
			var sse float64
			for _, row := range rows {
				sse += SqDist(row, cand)
			}
			if sse < sseMean-1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSqDist100(b *testing.B) {
	rng := rand.New(rand.NewPCG(5, 6))
	x, y := randVec(rng, 100), randVec(rng, 100)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = SqDist(x, y)
	}
}

// naiveSqDistRef is a single-accumulator reference. Bit-identity with
// the unrolled kernel cannot hold (summation order differs), so the
// unrolled kernels define the canonical order; these tests pin the
// internal consistencies the exactness argument relies on and check the
// naive reference only up to roundoff.
func naiveSqDistRef(a, b []float32) float64 {
	var s float64
	for i := range a {
		d := float64(a[i]) - float64(b[i])
		s += d * d
	}
	return s
}

// sameBits reports whether two kernel results are the same float64 bit
// for bit, any NaN equal to any NaN.
func sameBits(x, y float64) bool {
	return math.Float64bits(x) == math.Float64bits(y) || (math.IsNaN(x) && math.IsNaN(y))
}

// requireKernelsMatchRef holds the dispatched SqDist and SqDistBound to
// the scalar reference, bit for bit, at every limit given.
func requireKernelsMatchRef(t *testing.T, a, b []float32, limits ...float64) {
	t.Helper()
	if got, want := SqDist(a, b), sqDistRef(a, b); !sameBits(got, want) {
		t.Fatalf("n=%d: SqDist = %v, reference %v", len(a), got, want)
	}
	for _, limit := range limits {
		if got, want := SqDistBound(a, b, limit), sqDistBoundRef(a, b, limit); !sameBits(got, want) {
			t.Fatalf("n=%d limit=%v: SqDistBound = %v, reference %v", len(a), limit, got, want)
		}
	}
}

// SqDistBound with an infinite limit must be bit-identical to SqDist on
// every length (the tail/unroll boundary cases included): the exact
// search's oracle equivalence depends on a non-abandoned bounded kernel
// producing the same float as the plain one. Both kernels must also
// give the scalar reference's bits on every length mod 16, at limits
// that run through, tie, abandon part-way, abandon at the first
// checkpoint, and (NaN) never compare.
func TestSqDistBoundMatchesSqDistBitwise(t *testing.T) {
	t.Logf("AVX path: %v", useAVX)
	rng := rand.New(rand.NewPCG(7, 7))
	for n := 0; n <= 70; n++ {
		for _, mag := range []float64{1e-3, 1, 1e3} {
			a, b := randVec(rng, n), randVec(rng, n)
			for i := range a {
				a[i], b[i] = a[i]*float32(mag), b[i]*float32(mag)
			}
			want := SqDist(a, b)
			got := SqDistBound(a, b, math.Inf(1))
			if got != want {
				t.Fatalf("n=%d: SqDistBound(+Inf) = %v, SqDist = %v", n, got, want)
			}
			// A limit that equals the true value must not trigger abandonment
			// (the contract is partial > limit, strictly).
			if got := SqDistBound(a, b, want); got != want {
				t.Fatalf("n=%d: SqDistBound(limit=true value) = %v, want %v", n, got, want)
			}
			requireKernelsMatchRef(t, a, b, math.Inf(1), want, 0.5*want, 0, -1, math.NaN())
			// A partial sum that equals the limit at a checkpoint goes on.
			copy(b[:min(n, 16)], a)
			requireKernelsMatchRef(t, a, b, 0)
		}
	}
}

// When the kernel abandons, the reported partial must already exceed the
// limit — the property that makes early abandonment sound — and be the
// scalar reference's partial, bit for bit.
func TestSqDistBoundAbandonProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 3))
	abandoned := 0
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.IntN(128)
		a, b := randVec(rng, n), randVec(rng, n)
		full := SqDist(a, b)
		limit := full * rng.Float64() // limit < full: must abandon or return full
		got := SqDistBound(a, b, limit)
		if want := sqDistBoundRef(a, b, limit); !sameBits(got, want) {
			t.Fatalf("n=%d limit=%v: SqDistBound = %v, reference %v", n, limit, got, want)
		}
		if got > limit {
			if got != full {
				abandoned++
			}
			continue
		}
		t.Fatalf("n=%d: SqDistBound returned %v ≤ limit %v while full %v > limit", n, got, limit, full)
	}
	if abandoned == 0 {
		t.Fatal("no trial returned a partial sum")
	}
}

// A length mismatch panics in checkLen, before either kernel body reads
// past the shorter operand.
func TestSqDistMismatchPanics(t *testing.T) {
	short, long := []float32{1, 2, 3}, make([]float32, 40)
	for name, fn := range map[string]func(){
		"SqDist":        func() { SqDist(long, short) },
		"SqDistBound":   func() { SqDistBound(long, short, math.Inf(1)) },
		"SqDistEmpty":   func() { SqDist(nil, short) },
		"SqDistBoundLo": func() { SqDistBound(short, long, 0) },
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "length mismatch") {
					t.Fatalf("%s: recovered %q, want checkLen's length mismatch", name, msg)
				}
			}()
			fn()
		}()
	}
}

// FuzzSqDistKernels decodes a length, a limit and raw float32 bit
// patterns — so NaN payloads, subnormals, ±Inf and huge magnitudes all
// occur — and holds SqDist, SqDistBound and SqDistBlockInto to the
// scalar reference, bit for bit (any NaN equal to any NaN).
func FuzzSqDistKernels(f *testing.F) {
	nan := math.Float32bits(float32(math.NaN()))
	inf := math.Float32bits(float32(math.Inf(1)))
	seed := func(n byte, limit float64, words ...uint32) {
		b := binary.LittleEndian.AppendUint64([]byte{n}, math.Float64bits(limit))
		for _, w := range words {
			b = binary.LittleEndian.AppendUint32(b, w)
		}
		f.Add(b)
	}
	seed(0, 0)
	seed(3, 1, 0x3f800000, 0xbf800000, 0x7f7fffff)
	seed(16, 1e30, 0x7f7fffff, 0xff7fffff, 0x7f7fffff)
	seed(17, math.NaN(), nan, 0x7fc00001, 0x7f800001, inf, 0xff800000)
	seed(20, -1, 0x00000001, 0x00400000, 0x007fffff, 0x00800000, 0x80000001)
	seed(64, math.Inf(1))
	seed(70, 0.5, 0x40490fdb, 0xc0490fdb, 0x3dcccccd, 0x4b189680)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 9 {
			return
		}
		n := int(data[0]) % 80
		limit := math.Float64frombits(binary.LittleEndian.Uint64(data[1:]))
		data = data[9:]
		next := func() float32 {
			if len(data) < 4 {
				return 0
			}
			v := math.Float32frombits(binary.LittleEndian.Uint32(data))
			data = data[4:]
			return v
		}
		rows := make([]float32, 2*n)
		for i := range rows {
			rows[i] = next()
		}
		a, b := rows[:n], rows[n:]
		full := sqDistRef(a, b)
		requireKernelsMatchRef(t, a, b, limit, math.Inf(1), full, 0.5*full, 0)
		if n == 0 {
			return
		}
		out := make([]float64, 2)
		SqDistBlockInto(out, a, rows)
		for r, want := range []float64{sqDistRef(a, a), full} {
			if !sameBits(out[r], want) {
				t.Fatalf("n=%d row %d: SqDistBlockInto = %v, reference %v", n, r, out[r], want)
			}
		}
	})
}

// The unrolled kernels agree with the naive accumulator up to roundoff.
func TestUnrolledKernelsNearNaive(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 9))
	for trial := 0; trial < 50; trial++ {
		n := rng.IntN(300)
		a, b := randVec(rng, n), randVec(rng, n)
		if got, want := SqDist(a, b), naiveSqDistRef(a, b); !almostEq(got, want, 1e-12) {
			t.Fatalf("n=%d: SqDist=%v naive=%v", n, got, want)
		}
		var dot float64
		for i := range a {
			dot += float64(a[i]) * float64(b[i])
		}
		if got := Dot(a, b); !almostEq(got, dot, 1e-12) {
			t.Fatalf("n=%d: Dot=%v naive=%v", n, got, dot)
		}
	}
}

// MinMaxStrided over a flat arena equals MinMax over the row views.
func TestMinMaxStrided(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 2))
	const dim, rows = 7, 23
	arena := randVec(rng, dim*rows)
	views := make([][]float32, rows)
	for i := range views {
		views[i] = arena[i*dim : (i+1)*dim]
	}
	gotLo, gotHi := MinMaxStrided(arena, dim)
	wantLo, wantHi := MinMax(views)
	for i := 0; i < dim; i++ {
		if gotLo[i] != wantLo[i] || gotHi[i] != wantHi[i] {
			t.Fatalf("dim %d: strided (%v,%v) vs rows (%v,%v)", i, gotLo[i], gotHi[i], wantLo[i], wantHi[i])
		}
	}
}

func TestMinMaxStridedPanics(t *testing.T) {
	for _, tc := range []struct {
		name  string
		arena []float32
		dim   int
	}{
		{"zero dim", []float32{1}, 0},
		{"empty arena", nil, 3},
		{"ragged", []float32{1, 2, 3}, 2},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", tc.name)
				}
			}()
			MinMaxStrided(tc.arena, tc.dim)
		}()
	}
}
