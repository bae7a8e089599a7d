package kmeans

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/vec"
)

// blobs generates count points around k well-separated centers.
func blobs(rng *rand.Rand, k, count, dim int, sep, noise float64) (pts [][]float32, truth []int) {
	centers := make([][]float32, k)
	for i := range centers {
		c := make([]float32, dim)
		for j := range c {
			c[j] = float32(rng.NormFloat64() * sep)
		}
		centers[i] = c
	}
	pts = make([][]float32, count)
	truth = make([]int, count)
	for i := range pts {
		t := rng.IntN(k)
		p := vec.Clone(centers[t])
		for j := range p {
			p[j] += float32(rng.NormFloat64() * noise)
		}
		pts[i] = p
		truth[i] = t
	}
	return pts, truth
}

func TestFitRejectsBadInput(t *testing.T) {
	if _, err := Fit(nil, Config{K: 2}); err == nil {
		t.Fatal("expected error for empty points")
	}
	if _, err := Fit([][]float32{{1}}, Config{K: 0}); err == nil {
		t.Fatal("expected error for K=0")
	}
}

func TestFitRecoversBlobs(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	pts, truth := blobs(rng, 4, 800, 6, 10, 0.3)
	res, err := Fit(pts, Config{K: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centroids) != 4 {
		t.Fatalf("got %d centroids", len(res.Centroids))
	}
	// Purity: each fitted cluster should be dominated by one true label.
	counts := make(map[[2]int]int)
	for i, c := range res.Assign {
		counts[[2]int{c, truth[i]}]++
	}
	clusterTotal := make(map[int]int)
	clusterBest := make(map[int]int)
	for key, n := range counts {
		clusterTotal[key[0]] += n
		if n > clusterBest[key[0]] {
			clusterBest[key[0]] = n
		}
	}
	var pure, total int
	for c, tot := range clusterTotal {
		pure += clusterBest[c]
		total += tot
	}
	if float64(pure)/float64(total) < 0.95 {
		t.Fatalf("purity %v < 0.95", float64(pure)/float64(total))
	}
}

func TestFitDeterministic(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 9))
	pts, _ := blobs(rng, 3, 300, 4, 5, 0.5)
	a, _ := Fit(pts, Config{K: 3, Seed: 7})
	b, _ := Fit(pts, Config{K: 3, Seed: 7})
	for i := range a.Centroids {
		if vec.Dist(a.Centroids[i], b.Centroids[i]) != 0 {
			t.Fatal("same seed produced different centroids")
		}
	}
}

func TestKClampedToPoints(t *testing.T) {
	pts := [][]float32{{0, 0}, {1, 1}}
	res, err := Fit(pts, Config{K: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centroids) != 2 {
		t.Fatalf("K not clamped: %d centroids", len(res.Centroids))
	}
}

func TestAllIdenticalPoints(t *testing.T) {
	pts := make([][]float32, 20)
	for i := range pts {
		pts[i] = []float32{1, 2}
	}
	res, err := Fit(pts, Config{K: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range res.Assign {
		if a < 0 || a >= len(res.Centroids) {
			t.Fatalf("invalid assignment %d", a)
		}
	}
}

// Property: after Fit, every point is assigned to its nearest centroid.
func TestAssignmentsAreNearest(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 13))
		k := 2 + rng.IntN(5)
		pts, _ := blobs(rng, k, 100+rng.IntN(200), 3, 4, 0.8)
		res, err := Fit(pts, Config{K: k, Seed: seed})
		if err != nil {
			return false
		}
		for i, p := range pts {
			nearest, nd := vec.ArgNearest(p, res.Centroids)
			got := vec.SqDist(p, res.Centroids[res.Assign[i]])
			if got > nd+1e-9 {
				_ = nearest
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestNoEmptyClustersOnSeparatedData(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 4))
	pts, _ := blobs(rng, 5, 500, 2, 8, 0.2)
	res, _ := Fit(pts, Config{K: 5, Seed: 2})
	sizes := make([]int, 5)
	for _, a := range res.Assign {
		sizes[a]++
	}
	for c, n := range sizes {
		if n == 0 {
			t.Fatalf("cluster %d empty", c)
		}
	}
}

func TestSampleFit(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 1))
	pts, _ := blobs(rng, 4, 2000, 4, 10, 0.3)
	res, err := SampleFit(pts, 0.1, Config{K: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Assign) != len(pts) {
		t.Fatalf("Assign covers %d of %d points", len(res.Assign), len(pts))
	}
	// All points assigned to their nearest centroid.
	for i, p := range pts {
		c, _ := vec.ArgNearest(p, res.Centroids)
		if got := vec.SqDist(p, res.Centroids[res.Assign[i]]); got > vec.SqDist(p, res.Centroids[c])+1e-9 {
			t.Fatalf("point %d not assigned to nearest centroid", i)
		}
	}
	if _, err := SampleFit(pts, 0, Config{K: 2}); err == nil {
		t.Fatal("expected error for fraction 0")
	}
	if _, err := SampleFit(nil, 0.5, Config{K: 2}); err == nil {
		t.Fatal("expected error for empty points")
	}
}

func TestSampleFitTinyFractionClamps(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	pts, _ := blobs(rng, 3, 50, 2, 5, 0.5)
	res, err := SampleFit(pts, 0.0001, Config{K: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centroids) != 3 {
		t.Fatalf("got %d centroids", len(res.Centroids))
	}
}

func TestDiameters(t *testing.T) {
	pts := [][]float32{{0, 0}, {2, 0}, {10, 0}, {12, 0}}
	res := &Result{
		Centroids: [][]float32{{1, 0}, {11, 0}},
		Assign:    []int{0, 0, 1, 1},
	}
	d := Diameters(pts, res)
	if d[0] != 2 || d[1] != 2 {
		t.Fatalf("Diameters = %v, want [2 2]", d)
	}
}

func TestAssignAll(t *testing.T) {
	cents := [][]float32{{0, 0}, {10, 10}}
	pts := [][]float32{{1, 1}, {9, 9}, {0, 0}}
	got := AssignAll(pts, cents, 0)
	want := []int{0, 1, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("AssignAll = %v, want %v", got, want)
		}
	}
}
