// Package route implements the learned cluster router: a tiny,
// dependency-free logistic-regression model that predicts, from the
// centroid-level signals a query has already computed for the weak
// lower bound, whether a hybrid cluster contains one of the query's
// true top-k results.
//
// The model is deliberately small — a single linear layer over a
// handful of standardized features, trained by full-batch gradient
// descent — because it sits on the query hot path: scoring one cluster
// must cost a few multiply-adds, not a kernel call. Training is fully
// deterministic (no random initialization, no stochastic sampling), so
// two builds over the same data produce bit-identical weights and the
// routed search order is reproducible.
//
// The package is intentionally ignorant of the index: callers define
// what the features mean (internal/core assembles centroid distances,
// radii slack, bounds, and cluster mass) and this package only fits and
// evaluates the weights. That keeps it reusable for any fixed-width
// feature scheme and keeps the admissibility story out of the model:
// in exact mode the predictor is only ever a visit-order heuristic, so
// a badly fitted model can slow a query down but can never change its
// results.
package route

import (
	"fmt"
	"math"
)

// Model is a trained logistic-regression router. Predict returns the
// estimated probability that the feature vector's cluster holds a
// top-k result. The zero Model is invalid; use Train or restore the
// exported fields from persistence and check Valid.
type Model struct {
	// Bias and W are the logistic layer: logit = Bias + Σ W[i]·z[i]
	// where z is the standardized feature vector.
	Bias float64
	W    []float64
	// Mean and Scale standardize raw features: z[i] = (f[i]−Mean[i])·Scale[i].
	// Scale is the inverse standard deviation (0 for constant features,
	// which then contribute nothing — their effect folds into Bias).
	Mean, Scale []float64
}

// Valid reports whether the model can score nFeatures-wide vectors —
// the guard persistence uses before trusting restored weights.
func (m *Model) Valid(nFeatures int) bool {
	return m != nil &&
		len(m.W) == nFeatures &&
		len(m.Mean) == nFeatures &&
		len(m.Scale) == nFeatures &&
		finiteAll(m.W) && finiteAll(m.Mean) && finiteAll(m.Scale) &&
		!math.IsNaN(m.Bias) && !math.IsInf(m.Bias, 0)
}

// Predict returns σ(logit(f)), the predicted probability in (0,1).
func (m *Model) Predict(f []float64) float64 {
	return sigmoid(m.Logit(f))
}

// Logit returns the raw linear score. It is monotone in Predict, so
// callers that only rank clusters (the exact-reorder mode) can skip
// the exponential.
func (m *Model) Logit(f []float64) float64 {
	s := m.Bias
	for i, v := range f {
		s += m.W[i] * (v - m.Mean[i]) * m.Scale[i]
	}
	return s
}

// Folded is the inference-time form of a Model: the standardization
// constants are folded into the weights, so scoring is one fused
// multiply-add per feature instead of three. Fold once per model,
// score millions of clusters.
type Folded struct {
	Bias float64
	W    []float64
}

// Fold precomputes the inference form. Constant features (Scale 0)
// fold to a zero weight, exactly like Model.Logit neutralizes them.
func (m *Model) Fold() Folded {
	f := Folded{Bias: m.Bias, W: make([]float64, len(m.W))}
	for i := range m.W {
		f.W[i] = m.W[i] * m.Scale[i]
		f.Bias -= f.W[i] * m.Mean[i]
	}
	return f
}

// Logit returns the raw linear score — the same quantity as
// Model.Logit up to floating-point association.
func (f *Folded) Logit(feats []float64) float64 {
	s := f.Bias
	for i, v := range feats {
		s += f.W[i] * v
	}
	return s
}

// Predict returns σ(Logit(feats)).
func (f *Folded) Predict(feats []float64) float64 { return sigmoid(f.Logit(feats)) }

// TrainConfig tunes the gradient-descent fit. The zero value selects
// the defaults, which fit the cluster-routing feature scheme well and
// finish in milliseconds at typical training-set sizes.
type TrainConfig struct {
	// Epochs is the number of full-batch gradient steps (default 150).
	Epochs int
	// LearnRate is the initial step size, decayed harmonically
	// (default 0.5).
	LearnRate float64
	// L2 is the weight-decay coefficient (default 1e-4).
	L2 float64
	// PosWeight scales the gradient contribution of positive examples,
	// compensating the heavy class imbalance of "cluster holds a top-k
	// member" labels (default: #neg/#pos, capped at 64).
	PosWeight float64
}

func (c *TrainConfig) applyDefaults(pos, neg int) {
	if c.Epochs <= 0 {
		c.Epochs = 150
	}
	if c.LearnRate <= 0 {
		c.LearnRate = 0.5
	}
	if c.L2 <= 0 {
		c.L2 = 1e-4
	}
	if c.PosWeight <= 0 {
		if pos > 0 {
			c.PosWeight = float64(neg) / float64(pos)
		}
		if c.PosWeight < 1 {
			c.PosWeight = 1
		}
		if c.PosWeight > 64 {
			c.PosWeight = 64
		}
	}
}

// Train fits a logistic model to the labeled feature rows. Every row
// must have the same width. Deterministic: full-batch gradient descent
// from zero initialization, so identical inputs yield identical
// weights. Returns an error when the training set is degenerate (no
// rows, inconsistent widths, or single-class labels), in which case
// callers should run unrouted rather than trust a vacuous model.
func Train(rows [][]float64, labels []bool, cfg TrainConfig) (*Model, error) {
	if len(rows) == 0 || len(rows) != len(labels) {
		return nil, fmt.Errorf("route: %d rows for %d labels", len(rows), len(labels))
	}
	d := len(rows[0])
	if d == 0 {
		return nil, fmt.Errorf("route: empty feature rows")
	}
	pos := 0
	for i, r := range rows {
		if len(r) != d {
			return nil, fmt.Errorf("route: row %d has width %d, want %d", i, len(r), d)
		}
		if labels[i] {
			pos++
		}
	}
	if pos == 0 || pos == len(rows) {
		return nil, fmt.Errorf("route: single-class training set (%d/%d positive)", pos, len(rows))
	}
	cfg.applyDefaults(pos, len(rows)-pos)

	m := &Model{
		W:     make([]float64, d),
		Mean:  make([]float64, d),
		Scale: make([]float64, d),
	}
	// Standardization: zero-mean, unit-variance features keep one global
	// learning rate adequate for every dimension.
	n := float64(len(rows))
	for _, r := range rows {
		for j, v := range r {
			m.Mean[j] += v
		}
	}
	for j := range m.Mean {
		m.Mean[j] /= n
	}
	for _, r := range rows {
		for j, v := range r {
			dv := v - m.Mean[j]
			m.Scale[j] += dv * dv
		}
	}
	for j := range m.Scale {
		sd := math.Sqrt(m.Scale[j] / n)
		if sd > 1e-12 {
			m.Scale[j] = 1 / sd
		} else {
			m.Scale[j] = 0 // constant feature: carries no signal
		}
	}

	// Standardize every row once: the values do not depend on the weights,
	// so each epoch would recompute the same n·d products.
	zs := make([]float64, len(rows)*d)
	for i, r := range rows {
		z := zs[i*d : (i+1)*d]
		for j, v := range r {
			z[j] = (v - m.Mean[j]) * m.Scale[j]
		}
	}

	// Full-batch gradient descent on the weighted logistic loss.
	grad := make([]float64, d)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		lr := cfg.LearnRate / (1 + 0.02*float64(epoch))
		for j := range grad {
			grad[j] = 0
		}
		gradB := 0.0
		for i := range rows {
			z := zs[i*d : (i+1)*d]
			s := m.Bias
			for j, zj := range z {
				s += m.W[j] * zj
			}
			// err = σ(s) − y, scaled by the class weight.
			e := sigmoid(s)
			w := 1.0
			if labels[i] {
				e -= 1
				w = cfg.PosWeight
			}
			e *= w
			for j, zj := range z {
				grad[j] += e * zj
			}
			gradB += e
		}
		inv := 1 / n
		for j := range m.W {
			m.W[j] -= lr * (grad[j]*inv + cfg.L2*m.W[j])
		}
		m.Bias -= lr * gradB * inv
	}
	// Recalibration (Platt scaling): the class-weighted fit above ranks
	// well but systematically inflates probabilities — PosWeight scales
	// the positive gradient, so rare-positive training sets predict far
	// too much tail mass. Fit logit' = a·logit + b on the UNWEIGHTED
	// loss: a positive a preserves the ranking exactly while the
	// probabilities become honest, which the mass-coverage stopping
	// rule of the routed approximate mode depends on.
	s := make([]float64, len(rows))
	for i, r := range rows {
		s[i] = m.Logit(r)
	}
	a, b := 1.0, 0.0
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		lr := cfg.LearnRate / (1 + 0.02*float64(epoch))
		gradA, gradB := 0.0, 0.0
		for i, si := range s {
			e := sigmoid(a*si + b)
			if labels[i] {
				e -= 1
			}
			gradA += e * si
			gradB += e
		}
		inv := 1 / n
		a -= lr * gradA * inv
		b -= lr * gradB * inv
	}
	// Fold the calibration into the weights so inference stays one
	// linear layer. Guard a > 0: a non-positive slope would invert the
	// ranking, and keeping the uncalibrated (well-ranked) model is
	// strictly safer.
	if a > 0 && !math.IsNaN(a) && !math.IsInf(a, 0) && !math.IsNaN(b) && !math.IsInf(b, 0) {
		for j := range m.W {
			m.W[j] *= a
		}
		m.Bias = a*m.Bias + b
	}
	if !m.Valid(d) {
		return nil, fmt.Errorf("route: training diverged to non-finite weights")
	}
	return m, nil
}

func sigmoid(x float64) float64 {
	// Clamp to keep Exp out of the overflow range; σ saturates far
	// earlier anyway.
	if x > 40 {
		return 1
	}
	if x < -40 {
		return 0
	}
	return 1 / (1 + math.Exp(-x))
}

func finiteAll(s []float64) bool {
	for _, v := range s {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}
