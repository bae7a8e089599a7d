package kmeans

import (
	"encoding/binary"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/vec"
)

// The column kernel and parallelAssign are compared with vec.ArgNearest
// itself, which holds where the compiler does not fuse vec.SqDist's
// multiply-adds (amd64; see assign.go).

// kernelValues are the coordinates the property test draws from: ties
// (few distinct values), signed zeros, NaN, infinities, subnormals and
// magnitudes whose squares overflow float32 but not float64.
var kernelValues = []float32{
	0, float32(math.Copysign(0, -1)), 1, -1, 0.5, 2, 3, 1e-45, -1e-45, 1e-38, 1e19, -1e19, 3.4e38,
	float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
}

func assignBoth(t *testing.T, points, centroids [][]float32, workers int) {
	t.Helper()
	got := AssignAll(points, centroids, workers)
	for i, p := range points {
		if want, _ := vec.ArgNearest(p, centroids); got[i] != want {
			t.Fatalf("dim %d, %d centroids, workers %d: point %d %v assigned %d, vec.ArgNearest says %d",
				len(p), len(centroids), workers, i, p, got[i], want)
		}
	}
}

func TestArgNearestKernelMatchesVec(t *testing.T) {
	rng := rand.New(rand.NewPCG(28, 1))
	draw := func(n, dim int, special bool) [][]float32 {
		out := make([][]float32, n)
		for i := range out {
			out[i] = make([]float32, dim)
			for j := range out[i] {
				if special {
					out[i][j] = kernelValues[rng.IntN(len(kernelValues))]
				} else {
					out[i][j] = float32(rng.NormFloat64())
				}
			}
		}
		return out
	}
	for _, dim := range []int{1, 2, 3, 4, 5, 100} {
		for _, k := range []int{1, 2, 3, 4, 5, 7, 8, 73} {
			for _, special := range []bool{false, true} {
				cents := draw(k, dim, special)
				pts := draw(200, dim, special)
				// Points that coincide with a centroid, and duplicated
				// centroids: exact ties the first index must win.
				pts = append(pts, cents...)
				cents = append(cents, cents[0], cents[k/2])
				for _, workers := range []int{1, 3} {
					assignBoth(t, pts, cents, workers)
				}
			}
		}
	}
}

// TestArgNearestKernelFit pins the whole fit, not one pass: at every
// kernel width a Fit equals a Fit whose points carry a constant extra
// tail that pushes them past colDims onto vec.ArgNearest — the tail
// adds exactly 0 to every distance — whatever the worker count.
func TestArgNearestKernelFit(t *testing.T) {
	rng := rand.New(rand.NewPCG(28, 2))
	for dim := 1; dim <= colDims; dim++ {
		pts, _ := blobs(rng, 9, 1200, dim, 3, 1)
		wide := make([][]float32, len(pts))
		for i, p := range pts {
			wide[i] = append(append([]float32(nil), p...), make([]float32, 8-dim)...)
		}
		ref, err := Fit(wide, Config{K: 9, Seed: 5, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 3, 8} {
			got, err := Fit(pts, Config{K: 9, Seed: 5, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if got.Iters != ref.Iters {
				t.Fatalf("dim %d workers %d: %d iterations, reference %d", dim, workers, got.Iters, ref.Iters)
			}
			for i := range ref.Assign {
				if got.Assign[i] != ref.Assign[i] {
					t.Fatalf("dim %d workers %d: point %d assigned %d, reference %d", dim, workers, i, got.Assign[i], ref.Assign[i])
				}
			}
			for c := range ref.Centroids {
				for j := 0; j < dim; j++ {
					if math.Float32bits(got.Centroids[c][j]) != math.Float32bits(ref.Centroids[c][j]) {
						t.Fatalf("dim %d workers %d: centroid %d differs", dim, workers, c)
					}
				}
			}
		}
	}
}

// FuzzArgNearestKernels decodes a dimensionality, a centroid count and
// raw float32 bit patterns — so NaN payloads, subnormals and infinities
// all occur — and requires the assignment vec.ArgNearest gives.
func FuzzArgNearestKernels(f *testing.F) {
	nan := math.Float32bits(float32(math.NaN()))
	inf := math.Float32bits(float32(math.Inf(1)))
	seed := func(dim, k byte, words ...uint32) {
		b := []byte{dim, k}
		for _, w := range words {
			b = binary.LittleEndian.AppendUint32(b, w)
		}
		f.Add(b)
	}
	seed(2, 5, 0, 0x80000000, 1, 0x80000001, nan, inf, 0xff800000, 0x3f800000, 0xbf800000, 0x7f7fffff)
	seed(1, 3, 0x3f800000, 0x3f800000, 0x3f800000)
	seed(4, 6, nan, nan, nan, nan, 0, 0, 0, 0)
	seed(3, 4, inf, inf, inf, 0xff800000, 0, 1)
	seed(5, 9, 0x00000001, 0x00400000, 0x007fffff, 0x00800000)
	seed(100, 2)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		dims := []int{1, 2, 3, 4, 5, 100}
		dim := dims[int(data[0])%len(dims)]
		k := int(data[1])%13 + 1
		data = data[2:]
		next := func() float32 {
			if len(data) < 4 {
				return 0
			}
			v := math.Float32frombits(binary.LittleEndian.Uint32(data))
			data = data[4:]
			return v
		}
		rows := func(n int) [][]float32 {
			out := make([][]float32, n)
			for i := range out {
				out[i] = make([]float32, dim)
				for j := range out[i] {
					out[i][j] = next()
				}
			}
			return out
		}
		cents := rows(k)
		pts := append(rows(6), cents...)
		assignBoth(t, pts, cents, 2)
	})
}
