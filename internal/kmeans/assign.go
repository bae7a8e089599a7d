package kmeans

import (
	"sync/atomic"

	"repro/internal/par"
	"repro/internal/vec"
)

// The assignment step is K-Means' whole cost (points × centroids
// distances per pass), and both of the index's clusterings run in two
// dimensions — locations and the m = 2 projections — where a call to
// vec.SqDist per pair is all overhead: a slice header, a length check
// and a 4-way unrolled loop that never runs. Points of up to colDims
// dimensions are therefore assigned by a kernel over the centroids'
// coordinate columns (vec.NearestCol2 up to two dimensions, where the
// zero columns drop out of the sum, (a+b)+(0+0) = a+b; vec.NearestCol4
// above); wider points keep vec.ArgNearest.
//
// The kernel must pick what vec.ArgNearest picks, bit for bit, or the
// clustering — and everything built on it — changes. It does, because it
// computes the same float64 value per pair and scans in the same order:
//
//   - vec.SqDist on n ≤ 4 coordinates returns (s0+s1)+(s2+s3) with
//     s_j = d_j² for j < n and 0 above (n < 4 runs its tail loop, which
//     adds d_0², d_1², d_2² into s0 in turn; x+0 = x for the non-negative
//     or NaN x a square is, so both shapes give the same bits). Padding
//     points and centroids with zero coordinates up to colDims yields
//     exactly that expression for every n ≤ 4.
//   - float32 → float64 is exact, so converting the centroids once per
//     pass instead of once per pair changes nothing.
//   - The products carry explicit float64 conversions, which forbid the
//     compiler a fused multiply-add (vec.SqDist's are not fused on amd64
//     either).
//   - Centroids are compared in index order with a strict <, seeded with
//     centroid 0's distance: ties, NaN and ±Inf resolve as in
//     vec.ArgNearest.
const colDims = 4

// columns holds k centroids of dim ≤ colDims coordinates as colDims
// float64 columns of length k (zero above dim).
type columns [colDims][]float64

func newColumns(centroids [][]float32) *columns {
	k := len(centroids)
	buf := make([]float64, colDims*k)
	var c columns
	for j := range c {
		c[j] = buf[j*k : (j+1)*k : (j+1)*k]
	}
	for i, cent := range centroids {
		for j, v := range cent {
			c[j][i] = float64(v)
		}
	}
	return &c
}

// parallelAssign writes the nearest-centroid index of every point into
// assign, on up to workers goroutines, and reports whether any
// assignment changed.
func parallelAssign(points [][]float32, centroids [][]float32, assign []int, workers int) bool {
	var cols *columns
	dim := 0
	if len(centroids) > 0 {
		dim = len(centroids[0])
		if dim <= colDims {
			cols = newColumns(centroids)
		}
	}
	var changed atomic.Bool
	par.For(len(points), workers, func(lo, hi int) {
		moved := false
		for i := lo; i < hi; i++ {
			var c int
			if p := points[i]; cols != nil && len(p) == dim {
				var x [colDims]float64
				for j, v := range p {
					x[j] = float64(v)
				}
				if dim <= 2 {
					c = vec.NearestCol2(x[0], x[1], cols[0], cols[1])
				} else {
					c = vec.NearestCol4(x[0], x[1], x[2], x[3], cols[0], cols[1], cols[2], cols[3])
				}
			} else {
				c, _ = vec.ArgNearest(p, centroids) // also the length-mismatch panic
			}
			if c != assign[i] {
				assign[i] = c
				moved = true
			}
		}
		if moved {
			changed.Store(true)
		}
	})
	return changed.Load()
}
