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
// coordinate columns; wider points keep vec.ArgNearest.
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

// argNearest returns the index vec.ArgNearest would return for the point
// (x0,x1,x2,x3) over the column-stored centroids: four centroids per
// pass, their four distances independent of one another.
func (c *columns) argNearest(x0, x1, x2, x3 float64) int {
	c0 := c[0]
	k := len(c0)
	c1, c2, c3 := c[1][:k], c[2][:k], c[3][:k]
	sq := func(i int) float64 {
		d0, d1, d2, d3 := x0-c0[i], x1-c1[i], x2-c2[i], x3-c3[i]
		return (float64(d0*d0) + float64(d1*d1)) + (float64(d2*d2) + float64(d3*d3))
	}
	best, bestD := 0, sq(0)
	i := 0
	for ; i+4 <= k; i += 4 {
		best, bestD = nearer4(best, bestD, i, sq(i), sq(i+1), sq(i+2), sq(i+3))
	}
	for ; i < k; i++ {
		if e := sq(i); e < bestD {
			best, bestD = i, e
		}
	}
	return best
}

// argNearest2 is argNearest for points of at most two dimensions, the
// width both of the index's clusterings run at: the zero columns drop
// out of the sum ((a+b)+(0+0) = a+b).
func (c *columns) argNearest2(x0, x1 float64) int {
	c0 := c[0]
	k := len(c0)
	c1 := c[1][:k]
	sq := func(i int) float64 {
		d0, d1 := x0-c0[i], x1-c1[i]
		return float64(d0*d0) + float64(d1*d1)
	}
	best, bestD := 0, sq(0)
	i := 0
	for ; i+4 <= k; i += 4 {
		best, bestD = nearer4(best, bestD, i, sq(i), sq(i+1), sq(i+2), sq(i+3))
	}
	for ; i < k; i++ {
		if e := sq(i); e < bestD {
			best, bestD = i, e
		}
	}
	return best
}

// nearer4 folds the distances of centroids i..i+3 into the running
// arg-min, in index order with a strict <.
func nearer4(best int, bestD float64, i int, e0, e1, e2, e3 float64) (int, float64) {
	if e0 < bestD {
		best, bestD = i, e0
	}
	if e1 < bestD {
		best, bestD = i+1, e1
	}
	if e2 < bestD {
		best, bestD = i+2, e2
	}
	if e3 < bestD {
		best, bestD = i+3, e3
	}
	return best, bestD
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
					c = cols.argNearest2(x[0], x[1])
				} else {
					c = cols.argNearest(x[0], x[1], x[2], x[3])
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
