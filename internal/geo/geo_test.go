package geo

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestPointDist(t *testing.T) {
	p, q := Point{0, 0}, Point{3, 4}
	if p.Dist(q) != 5 {
		t.Fatalf("Dist = %v", p.Dist(q))
	}
	if p.SqDist(q) != 25 {
		t.Fatalf("SqDist = %v", p.SqDist(q))
	}
}

// contains reports whether p lies in r (inclusive): its distance to r
// is zero.
func contains(r Rect, p []float64) bool { return r.MinSqDist(p) == 0 }

func TestNewRectIsEmpty(t *testing.T) {
	r := NewRect(3)
	if contains(r, []float64{0, 0, 0}) {
		t.Fatal("NewRect should be empty")
	}
	r.ExtendPoint([]float64{1, 2, 3})
	if !contains(r, []float64{1, 2, 3}) {
		t.Fatal("rect should contain its only point")
	}
}

func TestExtendAndContains(t *testing.T) {
	r := NewRect(2)
	r.ExtendPoint([]float64{0, 0})
	r.ExtendPoint([]float64{2, 3})
	if !contains(r, []float64{1, 1}) {
		t.Fatal("should contain interior point")
	}
	if contains(r, []float64{3, 1}) {
		t.Fatal("should not contain exterior point")
	}
	other := RectFromPoint([]float64{5, 5})
	r.ExtendRect(other)
	if !contains(r, []float64{4, 4}) {
		t.Fatal("ExtendRect did not grow")
	}
}

func TestAreaMargin(t *testing.T) {
	r := Rect{Lo: []float64{0, 0, 0}, Hi: []float64{2, 3, 4}}
	if r.Area() != 24 {
		t.Fatalf("Area = %v", r.Area())
	}
	if r.Margin() != 9 {
		t.Fatalf("Margin = %v", r.Margin())
	}
	o := RectFromPoint([]float64{4, 3, 4})
	if got := r.EnlargedArea(o); got != 4*3*4 {
		t.Fatalf("EnlargedArea = %v", got)
	}
}

func TestMinDist(t *testing.T) {
	r := Rect{Lo: []float64{0, 0}, Hi: []float64{1, 1}}
	if d := r.MinDist([]float64{0.5, 0.5}); d != 0 {
		t.Fatalf("inside MinDist = %v", d)
	}
	if d := r.MinDist([]float64{4, 1}); d != 3 {
		t.Fatalf("side MinDist = %v", d)
	}
	if d := r.MinDist([]float64{4, 5}); d != 5 {
		t.Fatalf("corner MinDist = %v", d)
	}
}

func TestMinDistChebyshev(t *testing.T) {
	r := Rect{Lo: []float64{0, 0}, Hi: []float64{1, 1}}
	if d := r.MinDistChebyshev([]float64{0.2, 0.9}); d != 0 {
		t.Fatalf("inside = %v", d)
	}
	if d := r.MinDistChebyshev([]float64{4, 3}); d != 3 {
		t.Fatalf("outside = %v, want 3", d)
	}
}

// Property: MinDist lower-bounds the distance to every contained point.
func TestMinDistIsLowerBound(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 99))
		dims := 1 + rng.IntN(5)
		r := NewRect(dims)
		pts := make([][]float64, 8)
		for i := range pts {
			p := make([]float64, dims)
			for j := range p {
				p[j] = rng.Float64()*10 - 5
			}
			r.ExtendPoint(p)
			pts[i] = p
		}
		q := make([]float64, dims)
		for j := range q {
			q[j] = rng.Float64()*20 - 10
		}
		md := r.MinDist(q)
		for _, p := range pts {
			var d float64
			for j := range p {
				d += (p[j] - q[j]) * (p[j] - q[j])
			}
			if md > math.Sqrt(d)+1e-9 {
				return false
			}
		}
		// Chebyshev bound never exceeds Euclidean.
		return r.MinDistChebyshev(q) <= md+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
