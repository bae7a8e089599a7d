// Package geo provides the spatial primitives shared by the indexes: 2D
// points, d-dimensional axis-aligned rectangles, and minimum distances
// between points and rectangles (the "mindist" of best-first R-tree
// search).
package geo

import (
	"fmt"
	"math"
)

// Point is a 2D location. Dataset coordinates are normalized into
// [0,1]×[0,1] (paper §7.1).
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Hypot(dx, dy)
}

// SqDist returns the squared Euclidean distance between p and q.
func (p Point) SqDist(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Rect is a d-dimensional axis-aligned rectangle given by per-dimension
// low and high bounds. A Rect with Lo[i] > Hi[i] in any dimension is
// empty.
type Rect struct {
	Lo, Hi []float64
}

// NewRect returns a rectangle of the given dimensionality, initialized
// empty (Lo=+Inf, Hi=-Inf) so that Extend* grows it correctly.
func NewRect(dims int) Rect {
	r := Rect{Lo: make([]float64, dims), Hi: make([]float64, dims)}
	for i := 0; i < dims; i++ {
		r.Lo[i] = math.Inf(1)
		r.Hi[i] = math.Inf(-1)
	}
	return r
}

// RectFromPoint returns a degenerate rectangle containing only p.
func RectFromPoint(p []float64) Rect {
	r := Rect{Lo: make([]float64, len(p)), Hi: make([]float64, len(p))}
	copy(r.Lo, p)
	copy(r.Hi, p)
	return r
}

// Dims returns the dimensionality of the rectangle.
func (r Rect) Dims() int { return len(r.Lo) }

// ExtendPoint grows r to cover p.
func (r *Rect) ExtendPoint(p []float64) {
	if len(p) != len(r.Lo) {
		panic(fmt.Sprintf("geo: ExtendPoint dims %d != rect dims %d", len(p), len(r.Lo)))
	}
	for i, v := range p {
		if v < r.Lo[i] {
			r.Lo[i] = v
		}
		if v > r.Hi[i] {
			r.Hi[i] = v
		}
	}
}

// ExtendRect grows r to cover o.
func (r *Rect) ExtendRect(o Rect) {
	if len(o.Lo) != len(r.Lo) {
		panic("geo: ExtendRect dims mismatch")
	}
	for i := range r.Lo {
		if o.Lo[i] < r.Lo[i] {
			r.Lo[i] = o.Lo[i]
		}
		if o.Hi[i] > r.Hi[i] {
			r.Hi[i] = o.Hi[i]
		}
	}
}

// MinSqDist returns the squared Euclidean distance from point p to the
// nearest point of r (zero when p is inside r).
func (r Rect) MinSqDist(p []float64) float64 {
	var s float64
	for i, v := range p {
		if v < r.Lo[i] {
			d := r.Lo[i] - v
			s += d * d
		} else if v > r.Hi[i] {
			d := v - r.Hi[i]
			s += d * d
		}
	}
	return s
}

// MinDist returns the Euclidean distance from point p to the nearest
// point of r.
func (r Rect) MinDist(p []float64) float64 {
	return math.Sqrt(r.MinSqDist(p))
}

// MinDistChebyshev returns the L∞ distance from point p to the nearest
// point of r. It is the lower bound used in pivot (reference-point)
// spaces, where |d(x,pivot) − d(q,pivot)| ≤ d(x,q) per the triangle
// inequality, so the max per-dimension gap bounds the true distance.
func (r Rect) MinDistChebyshev(p []float64) float64 {
	var mx float64
	for i, v := range p {
		var d float64
		if v < r.Lo[i] {
			d = r.Lo[i] - v
		} else if v > r.Hi[i] {
			d = v - r.Hi[i]
		}
		if d > mx {
			mx = d
		}
	}
	return mx
}
