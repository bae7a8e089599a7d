// Package vec provides the low-level vector kernels used throughout the
// repository. Vectors are stored as []float32 to halve memory for the
// high-dimensional semantic embeddings, but every reduction accumulates in
// float64 so that distance comparisons are stable.
//
// The reduction kernels (Dot, SqDist, SqDistBound) are 4-way unrolled
// with independent accumulators: the four float64 additions per step have
// no data dependence on each other, so the CPU overlaps them instead of
// serializing on the ~4-cycle add latency. The unrolling fixes the
// summation order (lane i mod 4 feeds accumulator i mod 4, combined as
// (s0+s1)+(s2+s3)), so results are deterministic and identical between
// SqDist and a non-abandoned SqDistBound.
//
// On amd64 CPUs with AVX, SqDist and SqDistBound run that same loop four
// lanes per instruction (sqdist_amd64.s): lane k of one ymm accumulator
// is s_k, each 4-float step widens both operands and then subtracts,
// squares and adds as the scalar loop does, and the len%4 tail and the
// final combine stay in Go. There is no fused multiply-add: it rounds
// d·d and the add once instead of twice and would change the bits. The
// path is selected once at package init from CPUID (AVX, OSXSAVE) and
// XGETBV (the OS saves the ymm state); there is no option. Below 4
// floats there is no step to run, and the scalar loop answers. The scalar
// loops (sqDistRef, sqDistBoundRef) are the path on other CPUs and
// architectures and the reference the AVX path is tested against: every
// result, abandoned partial sums included, is the same float64 bit for
// bit.
//
// The build kernels (build.go, build_amd64.s) follow the same contract
// for index construction: K-Means assignment over centroid columns
// (NearestCol2, NearestCol4), the row body of the PCA sketch products
// (AddScaledRows), anchor ranking (Prefix), the per-dimension folds
// (FoldMinMax, AddWidened) and the four-row projection (Project4). Their
// lanes run across independent outputs — centroids, output columns,
// anchors, dimensions, rows — never across one sum and never fused, so
// each output sees its scalar reference's operations in its order; an
// arg-min keeps one running minimum and index per lane and merges the
// lanes by distance, then index, which is the sequential scan's first
// strict minimum. They share SqDist's dispatch and its references' role.
package vec

import (
	"fmt"
	"math"
)

// Dot returns the dot product of a and b, accumulated in float64.
// It panics if the lengths differ.
func Dot(a, b []float32) float64 {
	checkLen(a, b)
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s0 += float64(a[i]) * float64(b[i])
		s1 += float64(a[i+1]) * float64(b[i+1])
		s2 += float64(a[i+2]) * float64(b[i+2])
		s3 += float64(a[i+3]) * float64(b[i+3])
	}
	for ; i < len(a); i++ {
		s0 += float64(a[i]) * float64(b[i])
	}
	return (s0 + s1) + (s2 + s3)
}

// SqDist returns the squared Euclidean distance between a and b.
// It panics if the lengths differ.
func SqDist(a, b []float32) float64 {
	checkLen(a, b)
	if useAVX && len(a) >= 4 {
		return sqDistAVX(a, b, math.Inf(1))
	}
	return sqDistRef(a, b)
}

// sqDistRef is SqDist's scalar loop: the path where AVX is missing and
// the reference the AVX path is tested against, bit for bit. Below 4
// floats the loop is its tail alone and runs here on every CPU: the AVX
// body would have no step to run, and its call would double the cost of
// a 2-dim projected distance.
func sqDistRef(a, b []float32) float64 {
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		d0 := float64(a[i]) - float64(b[i])
		d1 := float64(a[i+1]) - float64(b[i+1])
		d2 := float64(a[i+2]) - float64(b[i+2])
		d3 := float64(a[i+3]) - float64(b[i+3])
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	for ; i < len(a); i++ {
		d := float64(a[i]) - float64(b[i])
		s0 += d * d
	}
	return (s0 + s1) + (s2 + s3)
}

// sqDistBoundBlock is the number of unrolled steps (4 lanes each)
// between early-abandon checkpoints in SqDistBound.
const sqDistBoundBlock = 4

// SqDistBound is SqDist with early abandonment: once the partial sum
// exceeds limit, the computation stops and the partial sum is returned.
// The partial sums are monotonically non-decreasing, so
//
//	SqDistBound(a, b, limit) > limit  ⇒  SqDist(a, b) > limit,
//
// which is what k-NN search needs to discard a candidate without
// finishing the kernel. When the result is ≤ limit it is the exact
// squared distance, bit-identical to SqDist (same lanes, same
// accumulators, same final combine). It panics if the lengths differ.
func SqDistBound(a, b []float32, limit float64) float64 {
	checkLen(a, b)
	if useAVX && len(a) >= 4 {
		return sqDistAVX(a, b, limit)
	}
	return sqDistBoundRef(a, b, limit)
}

// sqDistBoundRef is SqDistBound's scalar loop, the reference for the AVX
// path as sqDistRef is for SqDist's.
func sqDistBoundRef(a, b []float32, limit float64) float64 {
	var s0, s1, s2, s3 float64
	i := 0
	// Checkpoint every sqDistBoundBlock unrolled steps: often enough to
	// abandon early, rarely enough that the partial-sum combine does not
	// slow the full-length case measurably.
	for i+4*sqDistBoundBlock <= len(a) {
		for blk := 0; blk < sqDistBoundBlock; blk++ {
			d0 := float64(a[i]) - float64(b[i])
			d1 := float64(a[i+1]) - float64(b[i+1])
			d2 := float64(a[i+2]) - float64(b[i+2])
			d3 := float64(a[i+3]) - float64(b[i+3])
			s0 += d0 * d0
			s1 += d1 * d1
			s2 += d2 * d2
			s3 += d3 * d3
			i += 4
		}
		if (s0+s1)+(s2+s3) > limit {
			return (s0 + s1) + (s2 + s3)
		}
	}
	for ; i+4 <= len(a); i += 4 {
		d0 := float64(a[i]) - float64(b[i])
		d1 := float64(a[i+1]) - float64(b[i+1])
		d2 := float64(a[i+2]) - float64(b[i+2])
		d3 := float64(a[i+3]) - float64(b[i+3])
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	for ; i < len(a); i++ {
		d := float64(a[i]) - float64(b[i])
		s0 += d * d
	}
	return (s0 + s1) + (s2 + s3)
}

// Dist returns the Euclidean distance between a and b.
func Dist(a, b []float32) float64 {
	return math.Sqrt(SqDist(a, b))
}

// Norm returns the Euclidean norm of a.
func Norm(a []float32) float64 {
	return math.Sqrt(Dot(a, a))
}

// AngularDist returns the angular distance between a and b, normalized
// into [0,1] (the angle between the vectors divided by π). It is a
// proper metric on directions; zero vectors are handled by convention:
// two zero vectors are at distance 0, a zero and a non-zero vector at
// the maximal distance 1 (which preserves the triangle inequality).
func AngularDist(a, b []float32) float64 {
	na, nb := Norm(a), Norm(b)
	if na == 0 && nb == 0 {
		return 0
	}
	if na == 0 || nb == 0 {
		return 1
	}
	cos := Dot(a, b) / (na * nb)
	if cos > 1 {
		cos = 1
	} else if cos < -1 {
		cos = -1
	}
	return math.Acos(cos) / math.Pi
}

// Zero sets every element of a to zero.
func Zero(a []float32) {
	for i := range a {
		a[i] = 0
	}
}

// Clone returns a newly allocated copy of a.
func Clone(a []float32) []float32 {
	out := make([]float32, len(a))
	copy(out, a)
	return out
}

// Mean computes the element-wise mean of the given rows into dst.
// All rows must have len(dst). Mean panics if rows is empty.
func Mean(dst []float32, rows [][]float32) {
	if len(rows) == 0 {
		panic("vec: Mean of zero rows")
	}
	acc := make([]float64, len(dst))
	for _, r := range rows {
		checkLen(dst, r)
		AddWidened(acc, r)
	}
	inv := 1 / float64(len(rows))
	for i := range dst {
		dst[i] = float32(acc[i] * inv)
	}
}

// MinMax folds rows into per-dimension minima and maxima. The returned
// slices have the dimensionality of the rows. MinMax panics if rows is
// empty.
func MinMax(rows [][]float32) (lo, hi []float32) {
	if len(rows) == 0 {
		panic("vec: MinMax of zero rows")
	}
	lo = Clone(rows[0])
	hi = Clone(rows[0])
	for _, r := range rows[1:] {
		checkLen(lo, r)
		FoldMinMax(lo, hi, r)
	}
	return lo, hi
}

// MinMaxStrided is MinMax over a contiguous row-major arena holding
// len(arena)/dim rows of the given dimensionality. It panics if dim is
// not positive, if the arena is empty, or if its length is not a
// multiple of dim.
func MinMaxStrided(arena []float32, dim int) (lo, hi []float32) {
	if dim <= 0 {
		panic(fmt.Sprintf("vec: MinMaxStrided with dim %d", dim))
	}
	if len(arena) == 0 || len(arena)%dim != 0 {
		panic(fmt.Sprintf("vec: MinMaxStrided arena length %d not a positive multiple of %d", len(arena), dim))
	}
	lo = Clone(arena[:dim])
	hi = Clone(arena[:dim])
	FoldMinMax(lo, hi, arena[dim:])
	return lo, hi
}

// ArgNearest returns the index of the centroid nearest to x (squared
// Euclidean distance) and that squared distance. It panics if centroids
// is empty.
func ArgNearest(x []float32, centroids [][]float32) (int, float64) {
	if len(centroids) == 0 {
		panic("vec: ArgNearest with zero centroids")
	}
	best, bestD := 0, SqDist(x, centroids[0])
	for i := 1; i < len(centroids); i++ {
		if d := SqDist(x, centroids[i]); d < bestD {
			best, bestD = i, d
		}
	}
	return best, bestD
}

func checkLen(a, b []float32) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vec: length mismatch %d != %d", len(a), len(b)))
	}
}
