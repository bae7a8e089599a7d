package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/metric"
)

func init() {
	register("fig3", Fig3)
	register("fig4", Fig4)
}

// Fig3 reproduces the distance-distribution histograms of Fig. 3: the
// distribution of semantic distances from a random query to every object,
// in the original n-dimensional space and in the m=2 projected space.
// The paper reports the projected distribution being much wider, with
// more than double the variance — the phenomenon motivating CSSIA (§5.1).
func Fig3(s Setup) ([]Table, error) {
	s.applyDefaults()
	e, err := buildEnv(s, envConfig{
		kind: dataset.TwitterLike, size: s.twitterDefault(), queries: 1,
	})
	if err != nil {
		return nil, err
	}
	q := &e.queries[0]
	qProj := e.idx.ProjectQuery(q.Vec)

	const bins = 20
	histN := make([]int, bins)
	histM := make([]int, bins)
	var sumN, sumM, sqN, sqM float64
	n := float64(e.ds.Len())
	for i := range e.ds.Objects {
		dn := e.space.SemanticVec(q.Vec, e.ds.Objects[i].Vec)
		dm, _ := e.idx.ProjectedDistance(qProj, e.ds.Objects[i].ID)
		histN[binOf(dn, bins)]++
		histM[binOf(dm, bins)]++
		sumN += dn
		sumM += dm
		sqN += dn * dn
		sqM += dm * dm
	}
	varN := sqN/n - (sumN/n)*(sumN/n)
	varM := sqM/n - (sumM/n)*(sumM/n)

	hist := Table{
		ID:     "fig3",
		Title:  "Distribution of semantic distances to a random query (original n-dim vs projected m=2)",
		Note:   "paper: the projected distribution is much wider; variance(m=2) more than double variance(n)",
		Header: []string{"bin", "count(n-dim)", "count(m=2)"},
	}
	for b := 0; b < bins; b++ {
		hist.Rows = append(hist.Rows, []string{
			fmt.Sprintf("[%.2f,%.2f)", float64(b)/bins, float64(b+1)/bins),
			itoa(histN[b]), itoa(histM[b]),
		})
	}
	variance := Table{
		ID:     "fig3",
		Title:  "Variance of the two distance distributions",
		Note:   "paper reports 0.0046 (n) vs 0.01 (m=2) on 1M tweets",
		Header: []string{"space", "variance"},
		Rows: [][]string{
			{"original n-dim", fmt.Sprintf("%.5f", varN)},
			{"projected m=2", fmt.Sprintf("%.5f", varM)},
			{"ratio m/n", f2(varM / varN)},
		},
	}
	return []Table{hist, variance}, nil
}

func binOf(v float64, bins int) int {
	b := int(v * float64(bins))
	if b < 0 {
		b = 0
	}
	if b >= bins {
		b = bins - 1
	}
	return b
}

// Fig4 reproduces the cluster-overlap analysis of Fig. 4: the average
// hybrid-cluster diameter (a) and the percentage of hybrid clusters that
// enclose a random query (b), as the number of clusters grows, comparing
// the original-space semantic representation against the projected one.
// The paper finds the n-dimensional diameters barely shrink and 55-60% of
// clusters keep enclosing the query, while the projected representation
// drops toward 0% — the overlap argument of §5.1.
func Fig4(s Setup) ([]Table, error) {
	s.applyDefaults()
	size := s.twitterDefault()
	ds, err := dataset.Generate(dataset.GenConfig{
		Kind: dataset.TwitterLike, Size: size, Dim: s.Dim, Seed: s.Seed + uint64(size),
	})
	if err != nil {
		return nil, err
	}
	diam := Table{
		ID:     "fig4",
		Title:  "Average semantic cluster diameter vs number of hybrid clusters",
		Note:   "paper Fig. 4a: the n-dim diameter barely decreases with more clusters; the m=2 diameter keeps shrinking",
		Header: []string{"hybrid clusters", "avg diam (n-dim)", "avg diam (m=2)"},
	}
	encl := Table{
		ID:     "fig4",
		Title:  "Share of hybrid clusters enclosing a random query",
		Note:   "paper Fig. 4b: 55-60% under the n-dim representation, near 0% under m=2 once clusters are plentiful",
		Header: []string{"hybrid clusters", "enclosing (n-dim)", "enclosing (m=2)"},
	}
	for _, side := range []int{2, 4, 8, 16, 32} {
		space, err := metric.NewSpace(ds)
		if err != nil {
			return nil, err
		}
		idx, err := core.Build(ds, space, s.coreConfig(core.Config{Ks: side, Kt: side}))
		if err != nil {
			return nil, err
		}
		infos := idx.ClusterStats()
		var dN, dM float64
		for _, ci := range infos {
			dN += 2 * ci.SemanticRadius
			dM += 2 * ci.SemanticRadiusProj
		}
		dN /= float64(len(infos))
		dM /= float64(len(infos))
		queries := ds.SampleQueries(s.Queries, s.Seed+13)
		var eN, eM float64
		for qi := range queries {
			o, p := idx.EnclosureRates(&queries[qi])
			eN += o
			eM += p
		}
		eN /= float64(len(queries))
		eM /= float64(len(queries))
		diam.Rows = append(diam.Rows, []string{itoa(len(infos)), f4(dN), f4(dM)})
		encl.Rows = append(encl.Rows, []string{itoa(len(infos)), pct(eN), pct(eM)})
	}
	return []Table{diam, encl}, nil
}
