// Benchmarks: one per table and figure of the paper's evaluation (§7).
// Each benchmark exercises the measured kernel of its experiment — the
// query workload, the error computation, the maintenance operation, or
// index construction — against fixtures that are built once and cached.
// The cssibench command regenerates the full tables; these benchmarks
// give per-operation numbers with -benchmem.
package cssi

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/desire"
	"repro/internal/hac"
	"repro/internal/kmeans"
	"repro/internal/knn"
	"repro/internal/metric"
	"repro/internal/pca"
	"repro/internal/rrstar"
	"repro/internal/rtree"
	"repro/internal/s2rtree"
	"repro/internal/scan"
)

// benchEnv is a cached benchmark fixture.
type benchEnv struct {
	ds      *dataset.Dataset
	space   *metric.Space
	idx     *core.Index
	queries []dataset.Object
}

var (
	benchMu    sync.Mutex
	benchCache = map[string]*benchEnv{}
)

// getEnv builds (once) a fixture for the given kind/size/config.
func getEnv(b *testing.B, kind dataset.Kind, size int, cfg core.Config) *benchEnv {
	b.Helper()
	key := fmt.Sprintf("%v/%d/%+v", kind, size, cfg)
	benchMu.Lock()
	defer benchMu.Unlock()
	if e, ok := benchCache[key]; ok {
		return e
	}
	ds, err := dataset.Generate(dataset.GenConfig{Kind: kind, Size: size, Dim: 100, Seed: 77})
	if err != nil {
		b.Fatal(err)
	}
	space, err := metric.NewSpace(ds)
	if err != nil {
		b.Fatal(err)
	}
	cfg.Seed = 77
	idx, err := core.Build(ds, space, cfg)
	if err != nil {
		b.Fatal(err)
	}
	e := &benchEnv{ds: ds, space: space, idx: idx, queries: ds.SampleQueries(64, 5)}
	benchCache[key] = e
	return e
}

const (
	benchSize   = 10000
	benchK      = 50
	benchLambda = 0.5
)

func (e *benchEnv) query(i int) *dataset.Object { return &e.queries[i%len(e.queries)] }

// --- Fig. 3: distance-distribution histograms (n-dim vs m=2) ---

func BenchmarkFig3DistanceHistograms(b *testing.B) {
	e := getEnv(b, dataset.TwitterLike, benchSize, core.Config{})
	qProj := e.idx.ProjectQuery(e.queries[0].Vec)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hist := make([]int, 20)
		q := e.query(i)
		for j := range e.ds.Objects {
			d := e.space.SemanticVec(q.Vec, e.ds.Objects[j].Vec)
			p, _ := e.idx.ProjectedDistance(qProj, e.ds.Objects[j].ID)
			bin := int(d * 20)
			if bin > 19 {
				bin = 19
			}
			hist[bin]++
			_ = p
		}
	}
}

// --- Fig. 4: cluster overlap (enclosure rates) ---

func BenchmarkFig4ClusterOverlap(b *testing.B) {
	e := getEnv(b, dataset.TwitterLike, benchSize, core.Config{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.idx.EnclosureRates(e.query(i))
	}
}

// --- Figs. 5/13: scalability — one query per iteration, per algorithm ---

func benchAlgos(b *testing.B, kind dataset.Kind, size int) {
	e := getEnv(b, kind, size, core.Config{})
	algos := []struct {
		name string
		run  func(q *dataset.Object)
	}{
		{"Scan", func(q *dataset.Object) { scanOf(e).Search(q, benchK, benchLambda, nil) }},
		{"Rtree", func(q *dataset.Object) { rtreeOf(e).Search(q, benchK, benchLambda, nil) }},
		{"S2R", func(q *dataset.Object) { s2rOf(e).Search(q, benchK, benchLambda, nil) }},
		{"CSSI", func(q *dataset.Object) { e.idx.Search(q, benchK, benchLambda, nil) }},
		{"CSSIA", func(q *dataset.Object) { e.idx.SearchApprox(q, benchK, benchLambda, nil) }},
	}
	for _, a := range algos {
		b.Run(a.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				a.run(e.query(i))
			}
		})
	}
}

// Baseline caches (keyed off the env pointer).
var (
	scanCache  sync.Map
	rtreeCache sync.Map
	s2rCache   sync.Map
)

func scanOf(e *benchEnv) *scan.Scanner {
	if v, ok := scanCache.Load(e); ok {
		return v.(*scan.Scanner)
	}
	s := scan.New(e.ds, e.space)
	scanCache.Store(e, s)
	return s
}

func rtreeOf(e *benchEnv) *rtree.Baseline {
	if v, ok := rtreeCache.Load(e); ok {
		return v.(*rtree.Baseline)
	}
	t := rtree.NewBaseline(e.ds, e.space, 0)
	rtreeCache.Store(e, t)
	return t
}

func s2rOf(e *benchEnv) *s2rtree.Index {
	if v, ok := s2rCache.Load(e); ok {
		return v.(*s2rtree.Index)
	}
	t := s2rtree.Build(e.ds, e.space, s2rtree.Config{Seed: 77})
	s2rCache.Store(e, t)
	return t
}

func BenchmarkFig5ScalabilityTwitter(b *testing.B) {
	benchAlgos(b, dataset.TwitterLike, benchSize)
}

func BenchmarkFig13ScalabilityYelp(b *testing.B) {
	benchAlgos(b, dataset.YelpLike, benchSize)
}

// --- Fig. 6: varying k ---

func BenchmarkFig6VaryK(b *testing.B) {
	e := getEnv(b, dataset.TwitterLike, benchSize, core.Config{})
	for _, k := range []int{5, 25, 100} {
		b.Run(fmt.Sprintf("CSSI/k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e.idx.Search(e.query(i), k, benchLambda, nil)
			}
		})
		b.Run(fmt.Sprintf("CSSIA/k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e.idx.SearchApprox(e.query(i), k, benchLambda, nil)
			}
		})
	}
}

// --- Fig. 7: CSSIA error measurement (one exact+approx pair) ---

func BenchmarkFig7ErrorCSSIA(b *testing.B) {
	e := getEnv(b, dataset.TwitterLike, benchSize, core.Config{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := e.query(i)
		exact := e.idx.Search(q, benchK, benchLambda, nil)
		approx := e.idx.SearchApprox(q, benchK, benchLambda, nil)
		_ = knn.ErrorRate(exact, approx)
	}
}

// --- Figs. 8/14: varying λ ---

func benchLambdaSweep(b *testing.B, kind dataset.Kind) {
	e := getEnv(b, kind, benchSize, core.Config{})
	for _, lambda := range []float64{0, 0.5, 1} {
		b.Run(fmt.Sprintf("CSSI/lambda=%.1f", lambda), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e.idx.Search(e.query(i), benchK, lambda, nil)
			}
		})
		b.Run(fmt.Sprintf("CSSIA/lambda=%.1f", lambda), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e.idx.SearchApprox(e.query(i), benchK, lambda, nil)
			}
		})
	}
}

func BenchmarkFig8VaryLambda(b *testing.B) {
	benchLambdaSweep(b, dataset.TwitterLike)
}

func BenchmarkFig14VaryLambdaYelp(b *testing.B) {
	benchLambdaSweep(b, dataset.YelpLike)
}

// --- Fig. 9: varying m ---

func BenchmarkFig9VaryM(b *testing.B) {
	for _, m := range []int{1, 2, 5} {
		e := getEnv(b, dataset.TwitterLike, benchSize, core.Config{M: m})
		b.Run(fmt.Sprintf("CSSI/m=%d", m), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e.idx.Search(e.query(i), benchK, benchLambda, nil)
			}
		})
		b.Run(fmt.Sprintf("CSSIA/m=%d", m), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e.idx.SearchApprox(e.query(i), benchK, benchLambda, nil)
			}
		})
	}
}

// --- Fig. 10: varying f ---

func BenchmarkFig10VaryF(b *testing.B) {
	for _, f := range []float64{0.1, 0.3, 0.9} {
		e := getEnv(b, dataset.TwitterLike, benchSize, core.Config{F: f})
		b.Run(fmt.Sprintf("CSSI/f=%.1f", f), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e.idx.Search(e.query(i), benchK, benchLambda, nil)
			}
		})
		b.Run(fmt.Sprintf("CSSIA/f=%.1f", f), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e.idx.SearchApprox(e.query(i), benchK, benchLambda, nil)
			}
		})
	}
}

// --- Fig. 11: CSSIA error at the degenerate m=1 vs the default m=2 ---

func BenchmarkFig11ErrorMF(b *testing.B) {
	for _, m := range []int{1, 2} {
		e := getEnv(b, dataset.TwitterLike, benchSize, core.Config{M: m})
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				q := e.query(i)
				exact := e.idx.Search(q, benchK, benchLambda, nil)
				approx := e.idx.SearchApprox(q, benchK, benchLambda, nil)
				_ = knn.ErrorRate(exact, approx)
			}
		})
	}
}

// --- Fig. 12: pruning breakdown (stats-instrumented search) ---

func BenchmarkFig12Pruning(b *testing.B) {
	e := getEnv(b, dataset.TwitterLike, benchSize, core.Config{})
	b.ReportAllocs()
	b.ResetTimer()
	var st metric.Stats
	for i := 0; i < b.N; i++ {
		e.idx.Search(e.query(i), benchK, benchLambda, &st)
	}
	if st.VisitedObjects+st.InterPruned+st.IntraPruned != int64(b.N)*int64(e.ds.Len()) {
		b.Fatal("pruning identity broken")
	}
}

// --- Fig. 15: index construction ---

func BenchmarkFig15IndexCreation(b *testing.B) {
	for _, size := range []int{2000, benchSize} {
		ds, err := dataset.Generate(dataset.GenConfig{Kind: dataset.TwitterLike, Size: size, Dim: 100, Seed: 77})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				space, err := metric.NewSpace(ds)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := core.Build(ds, space, core.Config{Seed: 77}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Fig. 16: multi-metric competitors ---

func BenchmarkFig16MultiMetric(b *testing.B) {
	e := getEnv(b, dataset.TwitterLike, benchSize, core.Config{})
	d, err := desire.Build(e.ds, e.space, desire.Config{Seed: 77})
	if err != nil {
		b.Fatal(err)
	}
	rr := rrstar.Build(e.ds, e.space, rrstar.Config{Seed: 77})
	algos := []struct {
		name string
		run  func(q *dataset.Object)
	}{
		{"CSSI", func(q *dataset.Object) { e.idx.Search(q, benchK, benchLambda, nil) }},
		{"CSSIA", func(q *dataset.Object) { e.idx.SearchApprox(q, benchK, benchLambda, nil) }},
		{"DESIRE", func(q *dataset.Object) { d.Search(q, benchK, benchLambda, nil) }},
		{"RRstar", func(q *dataset.Object) { rr.Search(q, benchK, benchLambda, nil) }},
	}
	for _, a := range algos {
		b.Run(a.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				a.run(e.query(i))
			}
		})
	}
}

// --- Table 4: insert cost ---

func BenchmarkTable4Inserts(b *testing.B) {
	e := getEnv(b, dataset.TwitterLike, benchSize, core.Config{})
	pool, err := dataset.Generate(dataset.GenConfig{Kind: dataset.TwitterLike, Size: 4096, Dim: 100, Seed: 88})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := pool.Objects[i%len(pool.Objects)]
		o.ID = uint32(1_000_000 + i)
		if err := e.idx.Insert(o); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	// Restore the fixture for other benchmarks.
	for i := 0; i < b.N; i++ {
		_ = e.idx.Delete(uint32(1_000_000 + i))
	}
}

// --- Table 5: update cost ---

func BenchmarkTable5Updates(b *testing.B) {
	e := getEnv(b, dataset.TwitterLike, benchSize, core.Config{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o, ok := e.idx.Object(uint32(i % benchSize))
		if !ok {
			continue
		}
		upd := o
		upd.X = 1 - upd.X
		if err := e.idx.Update(upd); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table 6: clustering methods ---

func BenchmarkTable6Clustering(b *testing.B) {
	ds, err := dataset.Generate(dataset.GenConfig{Kind: dataset.TwitterLike, Size: 600, Dim: 100, Seed: 77})
	if err != nil {
		b.Fatal(err)
	}
	vecs := make([][]float32, ds.Len())
	for i := range ds.Objects {
		vecs[i] = ds.Objects[i].Vec
	}
	model, err := pca.Fit(vecs, pca.Config{Components: 2, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	proj := model.TransformAll(vecs)
	b.Run("KMeans", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := kmeans.Fit(proj, kmeans.Config{K: 16, Seed: uint64(i)}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("HACWard", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := hac.Cluster(proj, 16, hac.Ward); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("HACComplete", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := hac.Cluster(proj, 16, hac.Complete); err != nil {
				b.Fatal(err)
			}
		}
	})
}
