package vec

import (
	"fmt"
	"math"
)

// The build kernels: the loops index construction spends its time in
// (K-Means assignment, the PCA sketch products and projection, anchor
// ranking, the per-dimension folds). Each exported body runs on the AVX
// lanes when useAVX holds and its scalar reference otherwise; the lanes
// run across independent outputs — centroids, anchors, output columns,
// dimensions, rows — never across one sum, and every output sees its
// reference's operations in its reference's order, none fused. The
// references are the path on other CPUs and architectures and what the
// tests hold the bodies to, bit for bit.

// NearestCol2 returns the index of the centroid nearest to (x0, x1),
// with k = len(c0) ≥ 1 centroids stored as float64 coordinate columns c0
// and c1 (len(c1) ≥ k). Centroid i's distance is
// float64(d0*d0) + float64(d1*d1) with d_j = x_j − c_j[i]; the scan is
// seeded with centroid 0 and takes a later centroid only on a strict <,
// in index order, so ties go to the first and a NaN at centroid 0 keeps
// it.
func NearestCol2(x0, x1 float64, c0, c1 []float64) int {
	k := len(c0)
	c1 = c1[:k]
	if !useAVX || k < 8 {
		return nearestCol2Ref(x0, x1, c0, c1)
	}
	n8 := k &^ 7
	d0, d1 := x0-c0[0], x1-c1[0]
	best, bestD := nearestCol2Lanes(x0, x1, c0[:n8], c1[:n8], float64(d0*d0)+float64(d1*d1))
	for i := n8; i < k; i++ {
		d0, d1 := x0-c0[i], x1-c1[i]
		if e := float64(d0*d0) + float64(d1*d1); e < bestD {
			best, bestD = i, e
		}
	}
	return best
}

// nearestCol2Ref is NearestCol2's scalar loop: four centroids per pass,
// their distances independent of one another, folded in index order.
func nearestCol2Ref(x0, x1 float64, c0, c1 []float64) int {
	k := len(c0)
	c1 = c1[:k]
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

// NearestCol4 is NearestCol2 over four coordinate columns (each of
// length ≥ len(c0)), with centroid i's distance
// (float64(d0*d0) + float64(d1*d1)) + (float64(d2*d2) + float64(d3*d3)).
func NearestCol4(x0, x1, x2, x3 float64, c0, c1, c2, c3 []float64) int {
	k := len(c0)
	c1, c2, c3 = c1[:k], c2[:k], c3[:k]
	sq := func(i int) float64 {
		d0, d1, d2, d3 := x0-c0[i], x1-c1[i], x2-c2[i], x3-c3[i]
		return (float64(d0*d0) + float64(d1*d1)) + (float64(d2*d2) + float64(d3*d3))
	}
	if !useAVX || k < 8 {
		return nearestCol4Ref(x0, x1, x2, x3, c0, c1, c2, c3)
	}
	n8 := k &^ 7
	best, bestD := nearestCol4Lanes(x0, x1, x2, x3, c0[:n8], c1[:n8], c2[:n8], c3[:n8], sq(0))
	for i := n8; i < k; i++ {
		if e := sq(i); e < bestD {
			best, bestD = i, e
		}
	}
	return best
}

// nearestCol4Ref is NearestCol4's scalar loop.
func nearestCol4Ref(x0, x1, x2, x3 float64, c0, c1, c2, c3 []float64) int {
	k := len(c0)
	c1, c2, c3 = c1[:k], c2[:k], c3[:k]
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

// AddScaledRows adds to dst, in order over the rows of the row-major
// matrix rows (len(dst) columns), coef[r·stride] times row r, skipping
// the rows whose coefficient is zero: element j accumulates
// float64(coef[r·stride]*rows[r][j]) in ascending r, one rounding each,
// which is one output row of a matrix product (stride 1) or of a product
// with a transposed left operand (stride = its column count). It panics
// unless len(rows) is a multiple of len(dst) and coef holds every
// coefficient.
func AddScaledRows(dst, coef []float64, stride int, rows []float64) {
	w := len(dst)
	if w == 0 {
		return
	}
	n := len(rows) / w
	if len(rows) != n*w || stride < 1 || (n > 0 && len(coef) <= (n-1)*stride) {
		panic(fmt.Sprintf("vec: AddScaledRows of %d coefficients (stride %d) over %d values in rows of %d", len(coef), stride, len(rows), w))
	}
	if useAVX && n > 0 {
		addScaledRowsAVX(dst, coef, stride, rows)
		return
	}
	addScaledRowsRef(dst, coef, stride, rows)
}

// addScaledRowsRef is AddScaledRows' scalar loop: a row-AXPY per row.
func addScaledRowsRef(dst, coef []float64, stride int, rows []float64) {
	w := len(dst)
	for r := 0; (r+1)*w <= len(rows); r++ {
		av := coef[r*stride]
		if av == 0 {
			continue
		}
		for j, bv := range rows[r*w : (r+1)*w] {
			dst[j] += float64(av * bv)
		}
	}
}

// Prefix ranks k points by the float32 squared distance over their
// leading p dimensions: one accumulator per point, summed in dimension
// order as sq += float32(d*d) with d = v[j] − pt[j], the first strict
// minimum from +Inf winning. It keeps the points' prefixes transposed,
// dimension by dimension, padded to a multiple of eight points with NaN
// (a padded point's sum is NaN, never below the running minimum).
type Prefix struct {
	cols     []float32
	k, p, k8 int
}

// NewPrefix returns the ranker of pts over their leading p dimensions
// (every point has at least p).
func NewPrefix(pts [][]float32, p int) *Prefix {
	k := len(pts)
	k8 := (k + 7) &^ 7
	r := &Prefix{cols: make([]float32, p*k8), k: k, p: p, k8: k8}
	nan := float32(math.NaN())
	for j := 0; j < p; j++ {
		col := r.cols[j*k8 : (j+1)*k8]
		for i := range col {
			col[i] = nan
			if i < k {
				col[i] = pts[i][j]
			}
		}
	}
	return r
}

// Bytes is the memory the ranker holds.
func (r *Prefix) Bytes() int64 { return 4 * int64(cap(r.cols)) }

// Nearest returns the index of the point nearest to v (len(v) ≥ p) over
// the prefix dimensions, 0 when no sum is below +Inf. It panics on an
// empty ranker.
func (r *Prefix) Nearest(v []float32) int {
	if r.k == 0 {
		panic("vec: Prefix.Nearest over zero points")
	}
	head := v[:r.p]
	if useAVX && r.p > 0 {
		return nearestPrefixAVX(head, r.cols, r.k8)
	}
	return nearestPrefixRef(head, r.cols, r.k8)
}

// nearestPrefixRef is Prefix.Nearest's scalar loop over the transposed
// prefixes of k8 (padded) points: four points per pass, each with its
// own accumulator (the explicit conversions keep a compiler from fusing
// the multiply-add), compared in index order with a strict <. A padded
// point's NaN sum never wins.
func nearestPrefixRef(head, cols []float32, k8 int) int {
	best, bestSq := 0, float32(math.Inf(1))
	for i := 0; i+4 <= k8; i += 4 {
		var sq0, sq1, sq2, sq3 float32
		for j, h := range head {
			c := cols[j*k8+i : j*k8+i+4 : j*k8+i+4]
			d0, d1, d2, d3 := h-c[0], h-c[1], h-c[2], h-c[3]
			sq0 += float32(d0 * d0)
			sq1 += float32(d1 * d1)
			sq2 += float32(d2 * d2)
			sq3 += float32(d3 * d3)
		}
		if sq0 < bestSq {
			best, bestSq = i, sq0
		}
		if sq1 < bestSq {
			best, bestSq = i+1, sq1
		}
		if sq2 < bestSq {
			best, bestSq = i+2, sq2
		}
		if sq3 < bestSq {
			best, bestSq = i+3, sq3
		}
	}
	return best
}

// FoldMinMax folds the whole rows of len(lo) values in rows into the
// running per-dimension minima lo and maxima hi, in row order: lo[i]
// takes v only when v < lo[i], hi[i] only when v > hi[i], so a NaN never
// enters and never leaves, and of ±0 the first seen stays. It panics
// unless len(hi) = len(lo) and len(rows) is a multiple of it.
func FoldMinMax(lo, hi, rows []float32) {
	w := len(lo)
	if len(hi) != w || (w == 0 && len(rows) > 0) || (w > 0 && len(rows)%w != 0) {
		panic(fmt.Sprintf("vec: FoldMinMax of %d values into rows of %d/%d", len(rows), len(lo), len(hi)))
	}
	if useAVX && w >= 8 {
		foldMinMaxAVX(lo, hi, rows)
		return
	}
	foldMinMaxRef(lo, hi, rows)
}

// foldMinMaxRef is FoldMinMax's scalar loop.
func foldMinMaxRef(lo, hi, rows []float32) {
	dim := len(lo)
	for off := 0; off < len(rows); off += dim {
		row := rows[off : off+dim]
		for i, v := range row {
			if v < lo[i] {
				lo[i] = v
			}
			if v > hi[i] {
				hi[i] = v
			}
		}
	}
}

// AddWidened adds row, widened to float64, to acc element-wise: acc[i] +=
// float64(row[i]). It panics if the lengths differ.
func AddWidened(acc []float64, row []float32) {
	if len(acc) != len(row) {
		panic(fmt.Sprintf("vec: length mismatch %d != %d", len(acc), len(row)))
	}
	if useAVX && len(row) >= 4 {
		addWidenedAVX(acc, row)
		for i := len(row) &^ 3; i < len(row); i++ {
			acc[i] += float64(row[i])
		}
		return
	}
	addWidenedRef(acc, row)
}

// addWidenedRef is AddWidened's scalar loop.
func addWidenedRef(acc []float64, row []float32) {
	for i, v := range row {
		acc[i] += float64(v)
	}
}

// Project writes the m = len(dst) projections of x onto the rows of the
// row-major m×len(x) matrix comp after centering by mean: dst[i] =
// float32(Σ_j (float64(x[j]) − mean[j]) · comp[i][j]), summed in
// ascending j from 0, every subtraction, product and addition rounded on
// its own. It panics unless len(mean) = len(x) and len(comp) = m·len(x).
func Project(dst, x []float32, mean, comp []float64) {
	checkProject(len(dst), len(x), mean, comp)
	projectRef(dst, x, mean, comp)
}

// Project4 is Project for the four rows xs, into dst[r·m : (r+1)·m] for
// row r, m = len(dst)/4: each of the 4·m sums is Project's, computed four
// rows per instruction where AVX is available.
func Project4(dst []float32, xs *[4][]float32, mean, comp []float64) {
	m := len(dst) / 4
	checkProject(m, len(mean), mean, comp)
	for r, x := range xs {
		if len(x) != len(mean) || len(dst) != 4*m {
			panic(fmt.Sprintf("vec: Project4 of row %d (dim %d, mean %d) into %d outputs", r, len(x), len(mean), len(dst)))
		}
	}
	if useAVX && len(mean) > 0 {
		project4AVX(dst, xs, mean, comp)
		return
	}
	for r, x := range xs {
		projectRef(dst[r*m:(r+1)*m], x, mean, comp)
	}
}

func checkProject(m, n int, mean, comp []float64) {
	if len(mean) != n || len(comp) != m*n {
		panic(fmt.Sprintf("vec: projecting %d dims (mean %d) onto %d outputs with %d weights", n, len(mean), m, len(comp)))
	}
}

// projectRef is Project's scalar loop, the reference for Project4's
// lanes.
func projectRef(dst, x []float32, mean, comp []float64) {
	n := len(x)
	for i := range dst {
		row := comp[i*n : (i+1)*n]
		var s float64
		for j, v := range x {
			s += float64((float64(v) - mean[j]) * row[j])
		}
		dst[i] = float32(s)
	}
}
