package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/metric"
)

func init() {
	register("fig15", Fig15)
	register("fig16", Fig16)
}

// Fig15 reproduces the index-creation cost breakdown (Fig. 15): total
// construction time split into PCA, K-Means (spatial + semantic) and
// hybrid-cluster formation, as the dataset grows. The paper notes the
// growth is super-linear because the cluster count grows with |O|.
func Fig15(s Setup) ([]Table, error) {
	s.applyDefaults()
	t := Table{
		ID:     "fig15",
		Title:  "Index construction time (ms) vs |O| — Twitter",
		Note:   "paper Fig. 15: K-Means and hybrid formation dominate; super-linear growth (cluster count scales with |O|)",
		Header: []string{"|O|", "clusters", "kmeans", "pca", "hybrid", "total"},
	}
	for _, size := range s.twitterSizes() {
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
		start := time.Now()
		idx, tm, err := core.BuildTimed(ds, space, s.coreConfig(core.Config{}))
		if err != nil {
			return nil, err
		}
		// The wall time, not tm.Total(): the spatial K-Means overlaps PCA.
		total := time.Since(start)
		ms := func(d interface{ Milliseconds() int64 }) string {
			return fmt.Sprintf("%d", d.Milliseconds())
		}
		t.Rows = append(t.Rows, []string{
			itoa(size), itoa(idx.NumClusters()),
			ms(tm.Spatial + tm.Semantic), ms(tm.PCA), ms(tm.Hybrid), ms(total),
		})
	}
	return []Table{t}, nil
}

// Fig16 reproduces the multi-metric comparison (Fig. 16): distance
// calculations per query for CSSI, CSSIA, DESIRE and the RR*-tree across
// λ. The paper's accounting is used: for CSSI/CSSIA the count is visited
// objects × 2 (one calculation per space), while DESIRE and RR*-tree
// charge every per-space distance their strategies compute (including
// centroid/reference evaluations). Expected shape: ours win everywhere
// except the λ=1 corner (pure spatial k-NN).
func Fig16(s Setup) ([]Table, error) {
	s.applyDefaults()
	e, err := buildEnv(s, envConfig{
		kind: dataset.TwitterLike, size: s.twitterDefault(), withMetric: true,
	})
	if err != nil {
		return nil, err
	}
	t := Table{
		ID:     "fig16",
		Title:  "Distance calculations per query vs λ — Twitter",
		Note:   "paper Fig. 16: CSSI/CSSIA need far fewer calculations than DESIRE and RR*-tree except at λ=1",
		Header: []string{"lambda", "CSSI", "CSSIA", "DESIRE", "RR*-tree"},
	}
	for li := 0; li <= 10; li += 2 {
		lambda := float64(li) / 10
		row := []string{f1(lambda)}
		for _, a := range e.algos {
			m := run(e, a.s, s.K, lambda)
			row = append(row, f1(m.DistCalcs))
		}
		t.Rows = append(t.Rows, row)
	}
	return []Table{t}, nil
}
