package pca

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/vec"
)

// anisotropic generates points stretched along a known direction so the
// first principal component is predictable.
func anisotropic(rng *rand.Rand, n, count int, dir []float64, spread float64) [][]float32 {
	rows := make([][]float32, count)
	for i := range rows {
		r := make([]float32, n)
		t := rng.NormFloat64() * spread
		for j := 0; j < n; j++ {
			r[j] = float32(t*dir[j] + 0.05*rng.NormFloat64())
		}
		rows[i] = r
	}
	return rows
}

func unitDir(n int, rng *rand.Rand) []float64 {
	d := make([]float64, n)
	var norm float64
	for i := range d {
		d[i] = rng.NormFloat64()
		norm += d[i] * d[i]
	}
	norm = math.Sqrt(norm)
	for i := range d {
		d[i] /= norm
	}
	return d
}

func TestFitRejectsBadConfig(t *testing.T) {
	if _, err := Fit([][]float32{{1, 2}}, Config{Components: 0}); err == nil {
		t.Fatal("expected error for Components=0")
	}
	if _, err := Fit(nil, Config{Components: 1}); err == nil {
		t.Fatal("expected error for empty input")
	}
	if _, err := Fit([][]float32{{1, 2}, {1}}, Config{Components: 1}); err == nil {
		t.Fatal("expected error for ragged rows")
	}
}

func TestFirstComponentFindsDominantDirection(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 1))
	n := 20
	dir := unitDir(n, rng)
	rows := anisotropic(rng, n, 500, dir, 3.0)
	for _, method := range []Method{Exact, Randomized} {
		m, err := Fit(rows, Config{Components: 2, Method: method, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		// |cos| between component 0 and dir should be near 1.
		var dot float64
		row := m.Components.Row(0)
		for j := range dir {
			dot += row[j] * dir[j]
		}
		if math.Abs(dot) < 0.98 {
			t.Fatalf("method %v: first component misaligned, |cos|=%v", method, math.Abs(dot))
		}
		if m.ExplainedVariance[0] <= m.ExplainedVariance[1] {
			t.Fatalf("method %v: explained variance not descending: %v", method, m.ExplainedVariance)
		}
	}
}

func TestExactAndRandomizedAgree(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	n := 30
	rows := make([][]float32, 400)
	// Two dominant directions with different strengths.
	d1, d2 := unitDir(n, rng), unitDir(n, rng)
	for i := range rows {
		r := make([]float32, n)
		t1 := rng.NormFloat64() * 4
		t2 := rng.NormFloat64() * 2
		for j := 0; j < n; j++ {
			r[j] = float32(t1*d1[j] + t2*d2[j] + 0.02*rng.NormFloat64())
		}
		rows[i] = r
	}
	ex, err := Fit(rows, Config{Components: 3, Method: Exact})
	if err != nil {
		t.Fatal(err)
	}
	rd, err := Fit(rows, Config{Components: 3, Method: Randomized, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		rel := math.Abs(ex.ExplainedVariance[i]-rd.ExplainedVariance[i]) / (1 + ex.ExplainedVariance[i])
		if rel > 1e-3 {
			t.Fatalf("explained variance %d differs: exact %v vs randomized %v",
				i, ex.ExplainedVariance[i], rd.ExplainedVariance[i])
		}
	}
	// Projections agree up to per-component sign on the two components
	// whose eigenvalues are well separated (the third sits in the noise
	// floor, so its direction is not determined).
	probe := rows[13]
	pe, pr := ex.Transform(probe), rd.Transform(probe)
	for i := 0; i < 2; i++ {
		if math.Abs(math.Abs(float64(pe[i]))-math.Abs(float64(pr[i]))) > 1e-2*(1+math.Abs(float64(pe[i]))) {
			t.Fatalf("projection %d differs beyond sign: %v vs %v", i, pe[i], pr[i])
		}
	}
}

// Projection is a contraction: distances in the projected space never
// exceed distances in the original space (this is what makes CSSIA
// approximate rather than exact — projected lower bounds are not original
// lower bounds).
func TestProjectionContractsDistances(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 21))
	n := 40
	rows := make([][]float32, 300)
	for i := range rows {
		r := make([]float32, n)
		for j := range r {
			r[j] = float32(rng.NormFloat64())
		}
		rows[i] = r
	}
	m, err := Fit(rows, Config{Components: 5, Method: Exact})
	if err != nil {
		t.Fatal(err)
	}
	proj := m.TransformAll(rows)
	for trial := 0; trial < 200; trial++ {
		i, j := rng.IntN(len(rows)), rng.IntN(len(rows))
		orig := vec.Dist(rows[i], rows[j])
		p := vec.Dist(proj[i], proj[j])
		if p > orig+1e-5 {
			t.Fatalf("projection expanded distance: %v > %v", p, orig)
		}
	}
}

func TestTransformCentersData(t *testing.T) {
	rng := rand.New(rand.NewPCG(14, 3))
	n := 10
	rows := make([][]float32, 200)
	for i := range rows {
		r := make([]float32, n)
		for j := range r {
			r[j] = float32(rng.NormFloat64() + 5) // offset mean
		}
		rows[i] = r
	}
	m, err := Fit(rows, Config{Components: 3})
	if err != nil {
		t.Fatal(err)
	}
	proj := m.TransformAll(rows)
	// Mean of projections ~ 0 per dimension.
	for j := 0; j < 3; j++ {
		var s float64
		for _, p := range proj {
			s += float64(p[j])
		}
		if math.Abs(s/float64(len(proj))) > 1e-3 {
			t.Fatalf("projected mean dim %d = %v, want ~0", j, s/float64(len(proj)))
		}
	}
}

func TestComponentsClampToData(t *testing.T) {
	rows := [][]float32{{1, 2, 3}, {4, 5, 6}}
	m, err := Fit(rows, Config{Components: 10})
	if err != nil {
		t.Fatal(err)
	}
	if m.M() > 2 {
		t.Fatalf("components not clamped: m=%d", m.M())
	}
}

func TestExplainedVarianceRatioSumsBelowOne(t *testing.T) {
	rng := rand.New(rand.NewPCG(30, 30))
	rows := make([][]float32, 150)
	for i := range rows {
		r := make([]float32, 12)
		for j := range r {
			r[j] = float32(rng.NormFloat64())
		}
		rows[i] = r
	}
	m, err := Fit(rows, Config{Components: 4})
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	ratios := make([]float64, len(m.ExplainedVariance))
	for i, v := range m.ExplainedVariance {
		ratios[i] = v / m.TotalVariance
		if ratios[i] < 0 {
			t.Fatalf("negative ratio %v", ratios[i])
		}
		sum += ratios[i]
	}
	if sum > 1+1e-9 {
		t.Fatalf("ratios sum to %v > 1", sum)
	}
	// With 4 of 12 isotropic dims the ratio should be meaningful but < 1.
	if sum < 0.15 {
		t.Fatalf("ratios suspiciously low: %v", ratios)
	}
}

// TestTransformRowsMatchesTransformInto: projecting rows four at a time
// gives every row's TransformInto bits, and TransformInto gives the
// centered dot product summed in ascending dimension, each product
// rounded before its add (never fused), at row counts on both sides of a
// multiple of four.
func TestTransformRowsMatchesTransformInto(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 8))
	for _, n := range []int{1, 3, 100} {
		rows := make([][]float32, 61)
		for i := range rows {
			rows[i] = make([]float32, n)
			for j := range rows[i] {
				rows[i][j] = float32(rng.NormFloat64() * 3)
			}
		}
		for _, method := range []Method{Exact, Randomized} {
			model, err := Fit(rows, Config{Components: 2, Method: method, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			m := model.M()
			for _, count := range []int{0, 1, 3, 4, 5, 8, 9, 61} {
				got := make([]float32, m*count)
				model.TransformRows(got, rows[:count])
				for i, r := range rows[:count] {
					one := make([]float32, m)
					model.TransformInto(one, r)
					for c := 0; c < m; c++ {
						comp := model.Components.Row(c)
						var s float64
						for j, x := range r {
							s += float64((float64(x) - model.Mean[j]) * comp[j])
						}
						if math.Float32bits(got[i*m+c]) != math.Float32bits(one[c]) || math.Float32bits(one[c]) != math.Float32bits(float32(s)) {
							t.Fatalf("n=%d method %d count %d row %d output %d: TransformRows %v, TransformInto %v, loop %v",
								n, method, count, i, c, got[i*m+c], one[c], float32(s))
						}
					}
				}
			}
		}
	}
}
