package vec

import (
	"encoding/binary"
	"math"
	"math/rand/v2"
	"testing"
)

// buildSpecials32 are the float32 bit patterns every build kernel must
// pass through as its reference does: signed zeros, NaN payloads, ±Inf,
// subnormals and the float32 extremes.
var buildSpecials32 = []uint32{
	0, 0x80000000, 0x7fc00000, 0x7fc00001, 0xffc00000, 0x7f800001, 0x7f800000, 0xff800000,
	0x00000001, 0x80000001, 0x007fffff, 0x00800000, 0x7f7fffff, 0xff7fffff,
	0x3f800000, 0xbf800000, 0x40000000, 0x3f000000,
}

// draw32 returns n float32s: Gaussian, from a few distinct values (ties),
// or raw special bit patterns, by mode.
func draw32(rng *rand.Rand, n, mode int) []float32 {
	out := make([]float32, n)
	for i := range out {
		switch {
		case mode == 1:
			out[i] = float32(rng.IntN(4)) * 0.5
		case mode == 2 && rng.IntN(3) == 0:
			out[i] = math.Float32frombits(buildSpecials32[rng.IntN(len(buildSpecials32))])
		default:
			out[i] = float32(rng.NormFloat64())
		}
	}
	return out
}

func widen(v []float32) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = float64(x)
	}
	return out
}

func sameBits32(x, y float32) bool {
	return math.Float32bits(x) == math.Float32bits(y) || (x != x && y != y)
}

// requireNearestColsMatch holds NearestCol2 and NearestCol4 to their
// scalar references at the point x over the columns c.
func requireNearestColsMatch(t *testing.T, x [4]float64, c [4][]float64) {
	t.Helper()
	if got, want := NearestCol2(x[0], x[1], c[0], c[1]), nearestCol2Ref(x[0], x[1], c[0], c[1]); got != want {
		t.Fatalf("k=%d x=%v: NearestCol2 = %d, reference %d", len(c[0]), x[:2], got, want)
	}
	got := NearestCol4(x[0], x[1], x[2], x[3], c[0], c[1], c[2], c[3])
	if want := nearestCol4Ref(x[0], x[1], x[2], x[3], c[0], c[1], c[2], c[3]); got != want {
		t.Fatalf("k=%d x=%v: NearestCol4 = %d, reference %d", len(c[0]), x, got, want)
	}
}

// TestNearestColsMatchRef: the K-Means column kernels pick the scalar
// scan's centroid at every count from 1 to 300, over Gaussian, tied and
// special coordinates, with NaN at centroid 0, all-NaN distances and a
// NaN point among them.
func TestNearestColsMatchRef(t *testing.T) {
	t.Logf("AVX path: %v", useAVX)
	rng := rand.New(rand.NewPCG(41, 1))
	nan := math.NaN()
	for k := 1; k <= 300; k++ {
		for mode := 0; mode < 3; mode++ {
			var c [4][]float64
			for j := range c {
				c[j] = widen(draw32(rng, k, mode))
			}
			for trial := 0; trial < 12; trial++ {
				var x [4]float64
				for j := range x {
					x[j] = float64(draw32(rng, 1, mode)[0])
				}
				if trial == 0 {
					for j := range x {
						x[j] = c[j][rng.IntN(k)] // a point on a centroid: distance 0
					}
				}
				requireNearestColsMatch(t, x, c)
			}
			requireNearestColsMatch(t, [4]float64{nan, 0, 0, 0}, c)
			saved := c[0][0]
			c[0][0] = nan
			requireNearestColsMatch(t, [4]float64{0.5, 0.5, 0.5, 0.5}, c)
			for i := range c[0] {
				c[0][i] = nan
			}
			requireNearestColsMatch(t, [4]float64{0.5, 0.5, 0.5, 0.5}, c)
			c[0][0] = saved
			requireNearestColsMatch(t, [4]float64{0.5, 0.5, 0.5, 0.5}, c)
		}
	}
}

// TestAddScaledRowsMatchesRef: every column count 1..40 and a wide one,
// row counts 0..9 and 97, strides 1 and wider, Gaussian and special
// values, and zero (±0) and NaN coefficients through the skip.
func TestAddScaledRowsMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 2))
	for _, w := range append(rangeInts(1, 40), 96, 97, 100) {
		for _, n := range append(rangeInts(0, 9), 97) {
			for _, stride := range []int{1, 3} {
				for mode := 0; mode < 3; mode++ {
					rows := widen(draw32(rng, n*w, mode))
					coef := widen(draw32(rng, max(1, (n-1)*stride+1), mode))
					for i := 0; i < len(coef); i += 5 {
						coef[i] = []float64{0, math.Copysign(0, -1), math.NaN()}[rng.IntN(3)]
					}
					dst := widen(draw32(rng, w, mode))
					want := append([]float64(nil), dst...)
					AddScaledRows(dst, coef, stride, rows)
					addScaledRowsRef(want, coef, stride, rows)
					for j := range dst {
						if !sameBits(dst[j], want[j]) {
							t.Fatalf("w=%d n=%d stride=%d mode=%d: column %d = %v, reference %v", w, n, stride, mode, j, dst[j], want[j])
						}
					}
				}
			}
		}
	}
}

func rangeInts(lo, hi int) []int {
	var out []int
	for i := lo; i <= hi; i++ {
		out = append(out, i)
	}
	return out
}

// TestPrefixNearestMatchesRef: the eight-lane ranking picks the scalar
// ranking's point at counts 1..300 (96 and 97 included), prefix widths
// 1..17, with ties, duplicated points, special values, NaN sums at every
// point and at point 0, and rows on a point.
func TestPrefixNearestMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 3))
	for k := 1; k <= 300; k++ {
		for _, p := range []int{1, 3, 8, 16, 17} {
			mode := k % 3
			pts := make([][]float32, k)
			for i := range pts {
				pts[i] = draw32(rng, p, mode)
			}
			if k > 2 {
				pts[k-1] = append([]float32(nil), pts[1]...)
			}
			r := NewPrefix(pts, p)
			rows := [][]float32{pts[0], pts[k-1], make([]float32, p)}
			for i := 0; i < 6; i++ {
				rows = append(rows, draw32(rng, p, mode))
			}
			nanRow := make([]float32, p)
			nanRow[0] = float32(math.NaN())
			rows = append(rows, nanRow)
			for _, v := range rows {
				want := nearestPrefixRef(v[:p], r.cols, r.k8)
				if got := r.Nearest(v); got != want {
					t.Fatalf("k=%d p=%d row %v: Nearest = %d, reference %d", k, p, v, got, want)
				}
				if one := nearestOneAtATime(v[:p], pts); one != want {
					t.Fatalf("k=%d p=%d row %v: reference %d, one point at a time %d", k, p, v, want, one)
				}
			}
		}
	}
}

// nearestOneAtATime is the ranking's definition over the points as
// given: each point's float32 sum in dimension order, the first strict
// minimum from +Inf.
func nearestOneAtATime(head []float32, pts [][]float32) int {
	best, bestSq := 0, float32(math.Inf(1))
	for i, pt := range pts {
		var sq float32
		for j, h := range head {
			d := h - pt[j]
			sq += float32(d * d)
		}
		if sq < bestSq {
			best, bestSq = i, sq
		}
	}
	return best
}

// TestFoldMinMaxMatchesRef: widths 1..40 and 100, row counts 1..9,
// special values (NaN in the first row and later, ±0 in either order).
func TestFoldMinMaxMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 4))
	for _, w := range append(rangeInts(1, 40), 100) {
		for n := 1; n <= 9; n++ {
			for mode := 0; mode < 3; mode++ {
				rows := draw32(rng, n*w, mode)
				lo, hi := draw32(rng, w, mode), draw32(rng, w, mode)
				wantLo, wantHi := Clone(lo), Clone(hi)
				FoldMinMax(lo, hi, rows)
				foldMinMaxRef(wantLo, wantHi, rows)
				for i := range lo {
					if math.Float32bits(lo[i]) != math.Float32bits(wantLo[i]) || math.Float32bits(hi[i]) != math.Float32bits(wantHi[i]) {
						t.Fatalf("w=%d n=%d mode=%d dim %d: (%v, %v), reference (%v, %v)", w, n, mode, i, lo[i], hi[i], wantLo[i], wantHi[i])
					}
				}
			}
		}
	}
}

// TestAddWidenedAndProjectMatchRef: AddWidened at lengths 0..40 and 100;
// Project4 at dimensions 1..40 and 100 onto 1..5 outputs, each row's
// outputs bit for bit the scalar Project of that row.
func TestAddWidenedAndProjectMatchRef(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 5))
	for _, n := range append(rangeInts(0, 40), 100) {
		for mode := 0; mode < 3; mode++ {
			row := draw32(rng, n, mode)
			acc := widen(draw32(rng, n, mode))
			want := append([]float64(nil), acc...)
			AddWidened(acc, row)
			addWidenedRef(want, row)
			for i := range acc {
				if !sameBits(acc[i], want[i]) {
					t.Fatalf("n=%d: AddWidened[%d] = %v, reference %v", n, i, acc[i], want[i])
				}
			}
			if n == 0 {
				continue
			}
			for m := 1; m <= 5; m++ {
				mean := widen(draw32(rng, n, mode))
				comp := widen(draw32(rng, m*n, mode))
				var xs [4][]float32
				for r := range xs {
					xs[r] = draw32(rng, n, mode)
				}
				dst := make([]float32, 4*m)
				Project4(dst, &xs, mean, comp)
				for r, x := range xs {
					one := make([]float32, m)
					Project(one, x, mean, comp)
					for i := range one {
						if !sameBits32(dst[r*m+i], one[i]) {
							t.Fatalf("n=%d m=%d row %d output %d: Project4 = %v, Project %v", n, m, r, i, dst[r*m+i], one[i])
						}
					}
				}
			}
		}
	}
}

// FuzzBuildKernels decodes a size byte and raw float32 bit patterns and
// runs every build kernel on them against its scalar reference, bit for
// bit (any NaN equal to any NaN).
func FuzzBuildKernels(f *testing.F) {
	seed := func(size byte, words ...uint32) {
		b := []byte{size}
		for _, w := range words {
			b = binary.LittleEndian.AppendUint32(b, w)
		}
		f.Add(b)
	}
	seed(0)
	seed(9, 0x7fc00000, 0, 0x80000000, 0x3f800000, 0x7f800000, 0xff800000, 0x00000001)
	seed(26, buildSpecials32...)
	seed(51, 0x3f800000, 0x3f800000, 0x3f800000, 0x3f800000)
	seed(96, 0x7fc00000, 0x7fc00000, 0x7fc00000, 0x7fc00000, 0x7fc00000)
	seed(97, 0x00800000, 0x007fffff, 0x80000001, 0x7f7fffff)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		k := int(data[0])%120 + 1
		data = data[1:]
		next := func() float32 {
			if len(data) < 4 {
				return float32(len(data)) * 0.25
			}
			v := math.Float32frombits(binary.LittleEndian.Uint32(data))
			data = data[4:]
			return v
		}
		vals := make([]float32, 4*k+64)
		for i := range vals {
			vals[i] = next()
		}
		var c [4][]float64
		for j := range c {
			c[j] = widen(vals[j*k : (j+1)*k])
		}
		tail := vals[4*k:]
		requireNearestColsMatch(t, [4]float64{float64(tail[0]), float64(tail[1]), float64(tail[2]), float64(tail[3])}, c)

		// Prefix ranking: k points of p = 1 + k%16 dimensions.
		p := 1 + k%16
		pts := make([][]float32, k)
		for i := range pts {
			pts[i] = make([]float32, p)
			for j := range pts[i] {
				pts[i][j] = vals[(i*p+j)%len(vals)]
			}
		}
		if got, want := NewPrefix(pts, p).Nearest(tail[:p]), nearestOneAtATime(tail[:p], pts); got != want {
			t.Fatalf("k=%d p=%d: Nearest = %d, one point at a time %d", k, p, got, want)
		}

		// Row products over w = 1 + k%19 columns.
		w := 1 + k%19
		rows := widen(vals[:len(vals)/w*w])
		n := len(rows) / w
		coef := widen(vals[len(vals)-n:])
		dst, want := make([]float64, w), make([]float64, w)
		AddScaledRows(dst, coef, 1, rows)
		addScaledRowsRef(want, coef, 1, rows)
		for j := range dst {
			if !sameBits(dst[j], want[j]) {
				t.Fatalf("w=%d: AddScaledRows column %d = %v, reference %v", w, j, dst[j], want[j])
			}
		}

		// Folds over rows of w values.
		lo, hi := Clone(vals[:w]), Clone(vals[:w])
		wantLo, wantHi := Clone(lo), Clone(hi)
		arena := vals[:len(vals)/w*w]
		FoldMinMax(lo, hi, arena)
		foldMinMaxRef(wantLo, wantHi, arena)
		acc, accWant := make([]float64, w), make([]float64, w)
		for off := 0; off < len(arena); off += w {
			AddWidened(acc, arena[off:off+w])
			addWidenedRef(accWant, arena[off:off+w])
		}
		for i := 0; i < w; i++ {
			if math.Float32bits(lo[i]) != math.Float32bits(wantLo[i]) || math.Float32bits(hi[i]) != math.Float32bits(wantHi[i]) {
				t.Fatalf("w=%d dim %d: FoldMinMax (%v, %v), reference (%v, %v)", w, i, lo[i], hi[i], wantLo[i], wantHi[i])
			}
			if !sameBits(acc[i], accWant[i]) {
				t.Fatalf("w=%d dim %d: AddWidened %v, reference %v", w, i, acc[i], accWant[i])
			}
		}

		// Projection of four rows of w dims onto two outputs.
		mean, comp := widen(vals[w:2*w]), widen(vals[2*w:4*w])
		xs := [4][]float32{vals[:w], tail[:w], vals[k : k+w], vals[len(vals)-w:]}
		out := make([]float32, 8)
		Project4(out, &xs, mean, comp)
		for r, x := range xs {
			one := make([]float32, 2)
			projectRef(one, x, mean, comp)
			for i := range one {
				if !sameBits32(out[2*r+i], one[i]) {
					t.Fatalf("w=%d row %d output %d: Project4 = %v, reference %v", w, r, i, out[2*r+i], one[i])
				}
			}
		}
	})
}
