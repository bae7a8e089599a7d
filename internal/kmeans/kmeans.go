// Package kmeans implements Lloyd's K-Means with k-means++ seeding, the
// clustering primitive behind both the spatial and the semantic sides of
// CSSI's hybrid index (paper Alg. 1, lines 2 and 7). The paper fits
// K-Means on a 10% sample and then assigns the remaining objects to their
// nearest centroid (§7.1); SampleFit reproduces that recipe.
//
// Distances here are plain (unnormalized) Euclidean: K-Means assignments
// are invariant under the positive scaling the metric layer applies.
package kmeans

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"

	"repro/internal/par"
	"repro/internal/vec"
)

// Result is a fitted clustering.
type Result struct {
	// Centroids holds the k cluster centers.
	Centroids [][]float32
	// Assign maps every input point index to its centroid index.
	Assign []int
	// Iters is the number of Lloyd iterations run.
	Iters int
}

// Config controls Fit.
type Config struct {
	// K is the number of clusters. Required, >= 1 (clamped to the number
	// of points).
	K int
	// MaxIters bounds the Lloyd iterations (default 25; the paper notes
	// K-Means converges fast and treats iterations as a small constant).
	MaxIters int
	// Tol stops early when no assignment changes or the total centroid
	// movement falls below Tol (default 1e-6).
	Tol float64
	// Seed drives the k-means++ seeding deterministically.
	Seed uint64
	// Workers bounds the goroutines of the k-means++ distance refresh
	// and of the assignment step (0 = GOMAXPROCS). The result does not
	// depend on it.
	Workers int
}

func (c *Config) applyDefaults() {
	if c.MaxIters <= 0 {
		c.MaxIters = 25
	}
	if c.Tol <= 0 {
		c.Tol = 1e-6
	}
}

// Fit clusters points into cfg.K groups.
func Fit(points [][]float32, cfg Config) (*Result, error) {
	cfg.applyDefaults()
	if len(points) == 0 {
		return nil, fmt.Errorf("kmeans: no points")
	}
	if cfg.K < 1 {
		return nil, fmt.Errorf("kmeans: K = %d, want >= 1", cfg.K)
	}
	k := cfg.K
	if k > len(points) {
		k = len(points)
	}
	dim := len(points[0])
	rng := rand.New(rand.NewPCG(cfg.Seed, 0x6b6d65616e73))
	centroids := seedPlusPlus(points, k, rng, cfg.Workers)

	assign := make([]int, len(points))
	for i := range assign {
		assign[i] = -1
	}
	res := &Result{Centroids: centroids, Assign: assign}
	counts := make([]int, k)
	sums := make([][]float64, k)
	for i := range sums {
		sums[i] = make([]float64, dim)
	}
	for iter := 0; iter < cfg.MaxIters; iter++ {
		res.Iters = iter + 1
		changed := parallelAssign(points, centroids, assign, cfg.Workers)
		// Recompute centroids.
		for i := range counts {
			counts[i] = 0
			for j := range sums[i] {
				sums[i][j] = 0
			}
		}
		for i, p := range points {
			c := assign[i]
			counts[c]++
			s := sums[c]
			for j, v := range p {
				s[j] += float64(v)
			}
		}
		var moved float64
		for c := 0; c < k; c++ {
			if counts[c] == 0 {
				// Empty cluster: reseat at the point farthest from its
				// centroid, a standard repair that keeps k clusters.
				far := farthestPoint(points, centroids, assign)
				copy(centroids[c], points[far])
				assign[far] = c
				moved += 1 // force another iteration
				continue
			}
			inv := 1 / float64(counts[c])
			for j := 0; j < dim; j++ {
				nv := float32(sums[c][j] * inv)
				d := float64(nv - centroids[c][j])
				moved += d * d
				centroids[c][j] = nv
			}
		}
		if !changed && moved < cfg.Tol*cfg.Tol {
			break
		}
	}
	// Final assignment against the final centroids.
	parallelAssign(points, centroids, assign, cfg.Workers)
	return res, nil
}

// refreshGrain is the fewest points one goroutine of the k-means++
// refresh takes: below it, starting the goroutine costs about what the
// distances it computes do.
const refreshGrain = 1024

// seedPlusPlus picks k initial centroids with the k-means++ strategy.
// Each point's squared distance to its nearest centroid is its own, so
// the refresh after every pick runs on up to workers goroutines, each
// taking refreshGrain points or more; the total the next draw scales
// stays one serial sum over the points in order, so the draws do not
// depend on workers.
func seedPlusPlus(points [][]float32, k int, rng *rand.Rand, workers int) [][]float32 {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(1, min(workers, len(points)/refreshGrain))
	centroids := make([][]float32, 0, k)
	d2 := make([]float64, len(points))
	refresh := func(c []float32, reset bool) {
		par.For(len(points), workers, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				if d := vec.SqDist(points[i], c); reset || d < d2[i] {
					d2[i] = d
				}
			}
		})
	}
	first := rng.IntN(len(points))
	centroids = append(centroids, vec.Clone(points[first]))
	refresh(centroids[0], true)
	for len(centroids) < k {
		var total float64
		for _, d := range d2 {
			total += d
		}
		var next int
		if total <= 0 {
			next = rng.IntN(len(points)) // all points coincide
		} else {
			u := rng.Float64() * total
			for i, d := range d2 {
				u -= d
				if u <= 0 {
					next = i
					break
				}
			}
		}
		c := vec.Clone(points[next])
		centroids = append(centroids, c)
		refresh(c, false)
	}
	return centroids
}

// farthestPoint returns the index of the point with the largest distance
// to its assigned centroid.
func farthestPoint(points [][]float32, centroids [][]float32, assign []int) int {
	best, bestD := 0, -1.0
	for i, p := range points {
		c := assign[i]
		if c < 0 {
			continue
		}
		if d := vec.SqDist(p, centroids[c]); d > bestD {
			best, bestD = i, d
		}
	}
	return best
}

// AssignAll maps every point to its nearest centroid (one pass, on up to
// workers goroutines; 0 = GOMAXPROCS).
func AssignAll(points [][]float32, centroids [][]float32, workers int) []int {
	assign := make([]int, len(points))
	for i := range assign {
		assign[i] = -1
	}
	parallelAssign(points, centroids, assign, workers)
	return assign
}

// SampleFit reproduces the paper's recipe (§7.1): fit K-Means on a
// fraction of the points (sampled deterministically from seed), then
// assign all points to the fitted centroids. fraction is clamped so at
// least max(K, 2) points are used.
func SampleFit(points [][]float32, fraction float64, cfg Config) (*Result, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("kmeans: no points")
	}
	if fraction <= 0 || fraction > 1 {
		return nil, fmt.Errorf("kmeans: fraction %v out of (0,1]", fraction)
	}
	sampleSize := int(math.Ceil(fraction * float64(len(points))))
	minSize := cfg.K
	if minSize < 2 {
		minSize = 2
	}
	if sampleSize < minSize {
		sampleSize = minSize
	}
	if sampleSize > len(points) {
		sampleSize = len(points)
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, 0x73616d706c65))
	perm := rng.Perm(len(points))
	sample := make([][]float32, sampleSize)
	for i := 0; i < sampleSize; i++ {
		sample[i] = points[perm[i]]
	}
	res, err := Fit(sample, cfg)
	if err != nil {
		return nil, err
	}
	res.Assign = AssignAll(points, res.Centroids, cfg.Workers)
	return res, nil
}
