package experiments

import (
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/hac"
	"repro/internal/kmeans"
	"repro/internal/knn"
	"repro/internal/metric"
	"repro/internal/pca"
	"repro/internal/vec"
)

func init() {
	register("table4", Table4)
	register("table5", Table5)
	register("table6", Table6)
}

// Table4 reproduces the insert-resilience study (Table 4): the number of
// visited objects for an index built over the full dataset vs an index
// built over the base size and grown to the same size through inserts
// (§6.2). The paper reports the increase staying under ~1% for CSSI and
// under ~4% for CSSIA.
func Table4(s Setup) ([]Table, error) {
	s.applyDefaults()
	base := s.twitterDefault()
	// Paper ladder 10M/15M/20M/35M over a 5M base, scaled.
	targets := []int{s.size(40000), s.size(60000), s.size(80000), s.size(140000)}
	t := Table{
		ID:     "table4",
		Title:  "Effect of inserts: visited objects, full build vs base build + inserts — Twitter",
		Note:   fmt.Sprintf("paper Table 4: increase < 1%% (CSSI) and < 4%% (CSSIA); base here is %d objects", base),
		Header: []string{"|O|", "CSSI-Full", "CSSI-Partial", "CSSI incr", "CSSIA-Full", "CSSIA-Partial", "CSSIA incr"},
	}
	for _, target := range targets {
		ds, err := dataset.Generate(dataset.GenConfig{
			Kind: dataset.TwitterLike, Size: target, Dim: s.Dim, Seed: s.Seed + uint64(target),
		})
		if err != nil {
			return nil, err
		}
		queries := ds.SampleQueries(s.Queries, s.Seed+7)

		// Use the target size's cluster counts for BOTH builds: the
		// default rule scales K with |O|, and letting the partial index
		// keep the base size's (much smaller) K would conflate cluster
		// granularity with the insert resilience under test.
		side := clusterSideFor(target, 0.3)
		cfg := s.coreConfig(core.Config{Ks: side, Kt: side})

		spaceFull, err := metric.NewSpace(ds)
		if err != nil {
			return nil, err
		}
		full, err := core.Build(ds, spaceFull, cfg)
		if err != nil {
			return nil, err
		}

		basePart := ds.Prefix(base)
		spacePart, err := metric.NewSpace(basePart)
		if err != nil {
			return nil, err
		}
		partial, err := core.Build(basePart, spacePart, cfg)
		if err != nil {
			return nil, err
		}
		for i := base; i < target; i++ {
			if err := partial.Insert(ds.Objects[i]); err != nil {
				return nil, fmt.Errorf("table4: insert %d: %w", i, err)
			}
		}
		// The inserts sit in the write overlay; measure the index they
		// fold into (§6.2's clusters with their radii grown).
		if partial, err = partial.Compact(); err != nil {
			return nil, fmt.Errorf("table4: compact: %w", err)
		}

		visit := func(idx *core.Index, approx bool) float64 {
			var st metric.Stats
			for qi := range queries {
				if approx {
					idx.SearchApprox(&queries[qi], s.K, s.Lambda, &st)
				} else {
					idx.Search(&queries[qi], s.K, s.Lambda, &st)
				}
			}
			return float64(st.VisitedObjects) / float64(len(queries))
		}
		cf, cp := visit(full, false), visit(partial, false)
		af, ap := visit(full, true), visit(partial, true)
		t.Rows = append(t.Rows, []string{
			itoa(target),
			f1(cf), f1(cp), pct((cp - cf) / cf),
			f1(af), f1(ap), pct((ap - af) / af),
		})
	}
	return []Table{t}, nil
}

// Table5 reproduces the update-resilience study (Table 5): visited
// objects and CSSIA error after growing numbers of updates (delete
// followed by insert, dataset size constant). The paper reports both
// staying essentially unchanged.
func Table5(s Setup) ([]Table, error) {
	s.applyDefaults()
	size := s.twitterDefault()
	// Paper ladder 0/0.5M/1.5M/2.5M over 5M objects: 0%/10%/30%/50%.
	updateCounts := []int{0, size / 10, 3 * size / 10, size / 2}
	ds, err := dataset.Generate(dataset.GenConfig{
		Kind: dataset.TwitterLike, Size: size, Dim: s.Dim, Seed: s.Seed + uint64(size),
	})
	if err != nil {
		return nil, err
	}
	space, err := metric.NewSpace(ds)
	if err != nil {
		return nil, err
	}
	idx, err := core.Build(ds, space, s.coreConfig(core.Config{}))
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(s.Seed, 0x7461626c6535))

	t := Table{
		ID:     "table5",
		Title:  "Effect of updates: visited objects and CSSIA error — Twitter",
		Note:   "paper Table 5: query cost and error remain almost unchanged after up to 50% updates",
		Header: []string{"# updates", "CSSI visited", "CSSIA visited", "CSSIA error"},
	}
	applied := 0
	for _, target := range updateCounts {
		for applied < target {
			// An update perturbs the location and replaces the text
			// (vector) with another document's — the paper's "typically
			// a modification in the textual description".
			victim, ok := idx.Object(uint32(rng.IntN(size)))
			if !ok {
				continue
			}
			upd := victim
			upd.X = clamp01(upd.X + rng.NormFloat64()*0.03)
			upd.Y = clamp01(upd.Y + rng.NormFloat64()*0.03)
			upd.Vec = vec.Clone(ds.Objects[rng.IntN(size)].Vec)
			if err := idx.Update(upd); err != nil {
				return nil, fmt.Errorf("table5: update: %w", err)
			}
			applied++
		}
		// Measure the folded index, against its own live objects.
		if idx, err = idx.Compact(); err != nil {
			return nil, fmt.Errorf("table5: compact: %w", err)
		}
		queries := liveQueries(idx, size, s.Queries, s.Seed+7)
		var stC, stA metric.Stats
		var errSum float64
		for qi := range queries {
			exact := idx.Search(&queries[qi], s.K, s.Lambda, &stC)
			approx := idx.SearchApprox(&queries[qi], s.K, s.Lambda, &stA)
			errSum += knn.ErrorRate(exact, approx)
		}
		n := float64(len(queries))
		t.Rows = append(t.Rows, []string{
			itoa(target),
			f1(float64(stC.VisitedObjects) / n),
			f1(float64(stA.VisitedObjects) / n),
			pct(errSum / n),
		})
	}
	return []Table{t}, nil
}

// clusterSideFor mirrors the index's default cluster-count rule
// (√|O|·f, at least 4) for experiments that must pin Ks/Kt explicitly.
func clusterSideFor(n int, f float64) int {
	k := int(math.Round(math.Sqrt(float64(n)) * f))
	if k < 4 {
		k = 4
	}
	return k
}

// liveQueries samples query objects from an index's live population.
func liveQueries(idx *core.Index, idSpace, count int, seed uint64) []dataset.Object {
	rng := rand.New(rand.NewPCG(seed, 0x71756572696573))
	out := make([]dataset.Object, 0, count)
	for len(out) < count {
		if o, ok := idx.Object(uint32(rng.IntN(idSpace))); ok {
			out = append(out, o)
		}
	}
	return out
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Table6 reproduces the clustering-method comparison (Table 6): K-Means
// vs hierarchical agglomerative clustering (Ward and complete linkage) on
// a small sample, measured by average cluster diameter and fitting time.
// The paper finds K-Means slightly more compact and about an order of
// magnitude faster; HAC's quadratic memory forces the small sample there
// exactly as here.
func Table6(s Setup) ([]Table, error) {
	s.applyDefaults()
	size := s.twitterDefault()
	ds, err := dataset.Generate(dataset.GenConfig{
		Kind: dataset.TwitterLike, Size: size, Dim: s.Dim, Seed: s.Seed + uint64(size),
	})
	if err != nil {
		return nil, err
	}
	// HAC is O(n²) memory, so cluster a small sample of the projected
	// semantic vectors (the data the semantic K-Means of Alg. 1 sees).
	sampleSize := size / 20
	if sampleSize < 300 {
		sampleSize = 300
	}
	if sampleSize > size {
		sampleSize = size
	}
	vecs := make([][]float32, 0, sampleSize)
	stride := size / sampleSize
	if stride < 1 {
		stride = 1
	}
	for i := 0; i < size && len(vecs) < sampleSize; i += stride {
		vecs = append(vecs, ds.Objects[i].Vec)
	}
	model, err := pca.Fit(vecs, pca.Config{Components: 2, Method: pca.Randomized, Seed: s.Seed})
	if err != nil {
		return nil, err
	}
	proj := model.TransformAll(vecs)
	const k = 16

	t := Table{
		ID:     "table6",
		Title:  fmt.Sprintf("Clustering method comparison (%d samples, k=%d, m=2 projections)", len(proj), k),
		Note:   "paper Table 6: K-Means slightly more compact and ~10× faster than HAC",
		Header: []string{"method", "avg diameter", "time (ms)"},
	}

	start := time.Now()
	km, err := kmeans.Fit(proj, kmeans.Config{K: k, Seed: s.Seed})
	if err != nil {
		return nil, err
	}
	kmTime := time.Since(start)
	t.Rows = append(t.Rows, []string{"K-means", f4(meanDiameter(proj, km.Assign, km.Centroids)), durMS(kmTime)})

	for _, linkage := range []hac.Linkage{hac.Ward, hac.Complete} {
		start = time.Now()
		res, err := hac.Cluster(proj, k, linkage)
		if err != nil {
			return nil, err
		}
		elapsed := time.Since(start)
		name := "HAC (Ward)"
		if linkage == hac.Complete {
			name = "HAC (Complete)"
		}
		t.Rows = append(t.Rows, []string{name, f4(meanDiameter(proj, res.Assign, res.Centroids)), durMS(elapsed)})
	}
	return []Table{t}, nil
}

func durMS(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d.Microseconds())/1000)
}

// meanDiameter averages, over non-empty clusters, twice the maximum
// member-to-centroid distance.
func meanDiameter(points [][]float32, assign []int, centroids [][]float32) float64 {
	maxD := make([]float64, len(centroids))
	seen := make([]bool, len(centroids))
	for i, p := range points {
		c := assign[i]
		seen[c] = true
		if d := 2 * vec.Dist(p, centroids[c]); d > maxD[c] {
			maxD[c] = d
		}
	}
	var sum float64
	var n int
	for c := range maxD {
		if seen[c] {
			sum += maxD[c]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
