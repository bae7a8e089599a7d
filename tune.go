package cssi

import (
	"fmt"
	"time"
)

// TuneConfig controls Tune.
type TuneConfig struct {
	// MValues and FValues are the candidate grids (defaults: the
	// paper's sweeps, m ∈ {1,2,3,5,7} and f ∈ {0.1,0.3,0.5,0.7,0.9}).
	MValues []int
	FValues []float64
	// K and Lambda describe the expected workload (defaults 50, 0.5).
	K int
	// Lambda is the expected balance parameter.
	Lambda float64
	// Queries is the number of validation queries sampled from the
	// dataset (default 30).
	Queries int
	// MaxError rejects configurations whose measured CSSIA error
	// exceeds it (default 0.01, the paper's "under 1%").
	MaxError float64
	// Seed drives sampling and construction.
	Seed uint64
}

func (c *TuneConfig) applyDefaults() {
	if len(c.MValues) == 0 {
		c.MValues = []int{1, 2, 3, 5, 7}
	}
	if len(c.FValues) == 0 {
		c.FValues = []float64{0.1, 0.3, 0.5, 0.7, 0.9}
	}
	if c.K <= 0 {
		c.K = 50
	}
	if c.Lambda == 0 {
		c.Lambda = 0.5
	}
	if c.Queries <= 0 {
		c.Queries = 30
	}
	if c.MaxError <= 0 {
		c.MaxError = 0.01
	}
}

// TuneResult describes one evaluated configuration.
type TuneResult struct {
	M int
	F float64
	// BuildTime is the index construction time.
	BuildTime time.Duration
	// ExactMicros and ApproxMicros are mean per-query latencies of
	// CSSI and CSSIA on the validation workload.
	ExactMicros, ApproxMicros float64
	// Error is CSSIA's mean result error on the validation workload.
	Error float64
}

// Tune grid-searches the index's two construction knobs — the projection
// dimensionality m and the cluster multiplier f — against a sampled
// validation workload, and returns the evaluated grid sorted as
// evaluated plus the index of the recommended configuration: the one
// with the fastest approximate queries among those whose CSSIA error
// stays within MaxError (falling back to the lowest-error configuration
// when none qualifies). This automates the sensitivity analysis of the
// paper's Figs. 9-11 for a user's own data.
func Tune(ds *Dataset, cfg TuneConfig) (results []TuneResult, best int, err error) {
	cfg.applyDefaults()
	if ds == nil || ds.Len() == 0 {
		return nil, 0, fmt.Errorf("cssi: Tune on empty dataset")
	}
	queries := ds.SampleQueries(cfg.Queries, cfg.Seed+99)
	for _, m := range cfg.MValues {
		for _, f := range cfg.FValues {
			start := time.Now()
			idx, err := Build(ds, Options{M: m, F: f, Seed: cfg.Seed})
			if err != nil {
				return nil, 0, fmt.Errorf("cssi: tune m=%d f=%v: %w", m, f, err)
			}
			r := TuneResult{M: m, F: f, BuildTime: time.Since(start)}
			var exactTotal, approxTotal time.Duration
			var errSum float64
			for qi := range queries {
				req := SearchRequest{Query: &queries[qi], K: cfg.K, Lambda: cfg.Lambda}
				t0 := time.Now()
				exact, err := idx.Do(req)
				exactTotal += time.Since(t0)
				if err != nil {
					return nil, 0, fmt.Errorf("cssi: tune: %w", err)
				}
				req.Approx = true
				t0 = time.Now()
				approx, err := idx.Do(req)
				approxTotal += time.Since(t0)
				if err != nil {
					return nil, 0, fmt.Errorf("cssi: tune: %w", err)
				}
				errSum += ErrorRate(exact, approx)
			}
			n := float64(len(queries))
			r.ExactMicros = float64(exactTotal.Microseconds()) / n
			r.ApproxMicros = float64(approxTotal.Microseconds()) / n
			r.Error = errSum / n
			results = append(results, r)
		}
	}
	best = pickBest(results, cfg.MaxError)
	return results, best, nil
}

// pickBest selects the fastest approximate configuration within the
// error budget, or the lowest-error one if none qualifies.
func pickBest(results []TuneResult, maxError float64) int {
	best := -1
	for i, r := range results {
		if r.Error > maxError {
			continue
		}
		if best < 0 || r.ApproxMicros < results[best].ApproxMicros {
			best = i
		}
	}
	if best >= 0 {
		return best
	}
	for i, r := range results {
		if best < 0 || r.Error < results[best].Error {
			best = i
		}
	}
	return best
}
