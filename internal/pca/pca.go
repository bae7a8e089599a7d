// Package pca implements Principal Component Analysis for projecting the
// n-dimensional word-embedding vectors to the m-dimensional space used by
// CSSI's semantic clustering (paper Alg. 1, line 6).
//
// Two fitting paths are provided: an exact path that eigendecomposes the
// n×n covariance matrix (cheap for n≈100), and the randomized-SVD path of
// Halko et al. that the paper uses via scikit-learn, which avoids forming
// the covariance and is preferable when n is large or only a few
// components are needed. Both paths produce the same subspace up to sign
// and are tested against each other.
package pca

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/mat"
	"repro/internal/vec"
)

// Method selects the fitting algorithm.
type Method int

const (
	// Exact eigendecomposes the covariance matrix with cyclic Jacobi.
	Exact Method = iota
	// Randomized uses the randomized SVD of Halko et al. (the paper's
	// choice, §7.1).
	Randomized
)

// Model is a fitted PCA projection. The zero value is not usable; obtain
// one from Fit.
type Model struct {
	// Mean is the per-dimension mean of the training rows (length n).
	Mean []float64
	// Components holds the principal axes as rows (m×n): row i is the
	// i-th component.
	Components *mat.Dense
	// ExplainedVariance holds the variance captured by each component,
	// in descending order.
	ExplainedVariance []float64
	// TotalVariance is the total variance of the (centered) training
	// data, for computing explained-variance ratios.
	TotalVariance float64
}

// Config controls Fit.
type Config struct {
	// Components is m, the output dimensionality. Required, >= 1.
	Components int
	// Method selects the fitting path. Default Exact.
	Method Method
	// Oversample and PowerIters tune the randomized path (defaults 7
	// and 4, matching common practice in scikit-learn).
	Oversample, PowerIters int
	// Seed drives the randomized path deterministically.
	Seed uint64
	// Workers bounds the goroutines of the randomized path's matrix
	// products (0 = GOMAXPROCS). The model does not depend on it.
	Workers int
}

// Fit computes a PCA model of the given rows (each a length-n vector).
// The number of components is capped at min(n, len(rows)).
func Fit(rows [][]float32, cfg Config) (*Model, error) {
	if cfg.Components < 1 {
		return nil, fmt.Errorf("pca: Components = %d, want >= 1", cfg.Components)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("pca: no training rows")
	}
	n := len(rows[0])
	m := cfg.Components
	if m > n {
		m = n
	}
	if m > len(rows) {
		m = len(rows)
	}
	if cfg.Oversample <= 0 {
		cfg.Oversample = 7
	}
	if cfg.PowerIters <= 0 {
		cfg.PowerIters = 4
	}

	mean := make([]float64, n)
	for _, r := range rows {
		if len(r) != n {
			return nil, fmt.Errorf("pca: ragged input rows (%d vs %d)", len(r), n)
		}
		vec.AddWidened(mean, r)
	}
	invN := 1 / float64(len(rows))
	for j := range mean {
		mean[j] *= invN
	}

	model := &Model{Mean: mean}
	switch cfg.Method {
	case Randomized:
		// Build the centered data matrix and sketch it.
		x := mat.NewDense(len(rows), n)
		for i, r := range rows {
			xr := x.Row(i)
			for j, v := range r {
				xr[j] = float64(v) - mean[j]
			}
		}
		var total float64
		for _, v := range x.Data {
			total += v * v
		}
		model.TotalVariance = total / float64(len(rows))
		rng := rand.New(rand.NewPCG(cfg.Seed, 0x9e3779b97f4a7c15))
		res := mat.RandomizedSVD(x, m, cfg.Oversample, cfg.PowerIters, rng, cfg.Workers)
		comp := mat.NewDense(m, n)
		model.ExplainedVariance = make([]float64, m)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				comp.Set(i, j, res.V.At(j, i))
			}
			model.ExplainedVariance[i] = res.S[i] * res.S[i] / float64(len(rows))
		}
		model.Components = comp
	default: // Exact
		cov := covariance(rows, mean)
		var total float64
		for i := 0; i < n; i++ {
			total += cov.At(i, i)
		}
		model.TotalVariance = total
		vals, vecs := mat.JacobiEigen(cov)
		comp := mat.NewDense(m, n)
		model.ExplainedVariance = make([]float64, m)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				comp.Set(i, j, vecs.At(j, i))
			}
			ev := vals[i]
			if ev < 0 {
				ev = 0
			}
			model.ExplainedVariance[i] = ev
		}
		model.Components = comp
	}
	return model, nil
}

// covariance forms the biased (1/N) covariance matrix of the centered rows.
func covariance(rows [][]float32, mean []float64) *mat.Dense {
	n := len(mean)
	cov := mat.NewDense(n, n)
	centered := make([]float64, n)
	for _, r := range rows {
		for j, v := range r {
			centered[j] = float64(v) - mean[j]
		}
		for i := 0; i < n; i++ {
			ci := centered[i]
			if ci == 0 {
				continue
			}
			row := cov.Row(i)
			for j := i; j < n; j++ {
				row[j] += ci * centered[j]
			}
		}
	}
	invN := 1 / float64(len(rows))
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := cov.At(i, j) * invN
			cov.Set(i, j, v)
			cov.Set(j, i, v)
		}
	}
	return cov
}

// M returns the output dimensionality of the model.
func (p *Model) M() int { return p.Components.Rows }

// N returns the input dimensionality of the model.
func (p *Model) N() int { return p.Components.Cols }

// Transform projects a single n-dimensional vector to m dimensions.
func (p *Model) Transform(v []float32) []float32 {
	if len(v) != p.N() {
		panic(fmt.Sprintf("pca: Transform input dim %d, model expects %d", len(v), p.N()))
	}
	out := make([]float32, p.M())
	p.TransformInto(out, v)
	return out
}

// TransformInto projects v into dst, which must have length M().
func (p *Model) TransformInto(dst []float32, v []float32) {
	if len(dst) != p.M() {
		panic("pca: TransformInto dst length mismatch")
	}
	vec.Project(dst, v, p.Mean, p.Components.Data)
}

// TransformRows projects every row into dst, row i's M() outputs at
// dst[i·M():], bit for bit what TransformInto gives each row: four rows
// per vec.Project4, the rest one at a time.
func (p *Model) TransformRows(dst []float32, rows [][]float32) {
	m := p.M()
	if len(dst) != m*len(rows) {
		panic("pca: TransformRows dst length mismatch")
	}
	i := 0
	for ; i+4 <= len(rows); i += 4 {
		vec.Project4(dst[i*m:(i+4)*m], (*[4][]float32)(rows[i:i+4]), p.Mean, p.Components.Data)
	}
	for ; i < len(rows); i++ {
		p.TransformInto(dst[i*m:(i+1)*m], rows[i])
	}
}

// TransformAll projects every row, returning newly allocated projections.
func (p *Model) TransformAll(rows [][]float32) [][]float32 {
	m := p.M()
	buf := make([]float32, m*len(rows))
	p.TransformRows(buf, rows)
	out := make([][]float32, len(rows))
	for i := range out {
		out[i] = buf[i*m : (i+1)*m : (i+1)*m]
	}
	return out
}
