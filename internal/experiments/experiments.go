// Package experiments regenerates every table and figure of the paper's
// evaluation section (§7) at a configurable scale. Each experiment is a
// function from a Setup to one or more Tables; the cssibench command and
// the root-level benchmarks drive them.
//
// The paper runs 0.5M–35M objects on a dual-Xeon server; the default
// Setup here is laptop-scale (tens of thousands of objects) with the same
// parameter ratios, so the reproduced quantity is the *shape* of each
// result — which algorithm wins, by roughly what factor, and where
// crossovers fall — rather than absolute times. Setup.Scale grows the
// workloads toward paper sizes.
package experiments

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/desire"
	"repro/internal/knn"
	"repro/internal/metric"
	"repro/internal/pca"
	"repro/internal/rrstar"
	"repro/internal/rtree"
	"repro/internal/s2rtree"
	"repro/internal/scan"
)

// Setup holds the experiment-wide knobs.
type Setup struct {
	// Scale multiplies every dataset size (default 1 = laptop scale;
	// the paper's Twitter default of 5M corresponds to Scale≈250).
	Scale float64
	// Queries is the number of query objects per measurement
	// (default 50; the paper uses 100).
	Queries int
	// ErrorQueries is the query count for error-rate measurements
	// (default 400; the paper uses 5000 because errors are rare).
	ErrorQueries int
	// K is the default number of neighbors (default 50, Table 3).
	K int
	// Lambda is the default balance parameter (default 0.5, Table 3).
	Lambda float64
	// Dim is the embedding dimensionality n (default 100, Table 3).
	Dim int
	// Seed drives dataset generation, index construction and query
	// sampling.
	Seed uint64
}

// coreConfig is every experiment's build configuration: cfg with the
// run's seed and the paper's randomized-SVD PCA, which is what cssi.Build
// passes (core.Config's zero PCAMethod is the exact path).
func (s Setup) coreConfig(cfg core.Config) core.Config {
	cfg.Seed = s.Seed
	cfg.PCAMethod = pca.Randomized
	return cfg
}

func (s *Setup) applyDefaults() {
	if s.Scale <= 0 {
		s.Scale = 1
	}
	if s.Queries <= 0 {
		s.Queries = 50
	}
	if s.ErrorQueries <= 0 {
		s.ErrorQueries = 400
	}
	if s.K <= 0 {
		s.K = 50
	}
	if s.Lambda == 0 {
		s.Lambda = 0.5
	}
	if s.Dim <= 0 {
		s.Dim = 100
	}
}

// Paper Table 3 size ladders, scaled down 250×: the Twitter sweep
// 5M/10M/16M/35M and the Yelp sweep 0.5M/1M/2.5M/5M keep their ratios.
func (s *Setup) twitterSizes() []int {
	return []int{s.size(20000), s.size(40000), s.size(64000), s.size(140000)}
}

func (s *Setup) yelpSizes() []int {
	return []int{s.size(2000), s.size(4000), s.size(10000), s.size(20000)}
}

// twitterDefault is the default Twitter size (the paper's default 5M is
// the smallest rung of its sweep; ours mirrors that).
func (s *Setup) twitterDefault() int { return s.size(20000) }

// yelpDefault mirrors the paper's Yelp default (5M, the largest rung).
func (s *Setup) yelpDefault() int { return s.size(20000) }

func (s *Setup) size(base int) int {
	n := int(math.Round(float64(base) * s.Scale))
	if n < 100 {
		n = 100
	}
	return n
}

// Table is one rendered result table (a figure's data series or a paper
// table).
type Table struct {
	// ID is the experiment identifier ("fig5", "table4", ...).
	ID string
	// Title describes the table; Note records the paper's expectation
	// for the shape of the numbers.
	Title, Note string
	Header      []string
	Rows        [][]string
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	if t.Note != "" {
		fmt.Fprintf(w, "   %s\n", t.Note)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(fmt.Sprintf("%-*s", widths[i], c))
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
	line(t.Header)
	line(dashes(widths))
	for _, row := range t.Rows {
		line(row)
	}
	fmt.Fprintln(w)
}

func dashes(widths []int) []string {
	out := make([]string, len(widths))
	for i, w := range widths {
		out[i] = strings.Repeat("-", w)
	}
	return out
}

// CSV writes the table as comma-separated values and returns the first
// write error.
func (t *Table) CSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, strings.Join(t.Header, ",")); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

// searcher is the common query interface of all six algorithms.
type searcher interface {
	Search(q *dataset.Object, k int, lambda float64, st *metric.Stats) []knn.Result
}

// approxSearcher adapts the CSSIA entry point to the searcher interface.
type approxSearcher struct{ idx *core.Index }

func (a approxSearcher) Search(q *dataset.Object, k int, lambda float64, st *metric.Stats) []knn.Result {
	return a.idx.SearchApprox(q, k, lambda, st)
}

// algo names a searcher for table columns.
type algo struct {
	name string
	s    searcher
}

// env is one fully-built experimental environment: a dataset, its metric
// space, the query workload, and the algorithms under test.
type env struct {
	ds      *dataset.Dataset
	space   *metric.Space
	queries []dataset.Object
	idx     *core.Index // CSSI/CSSIA index
	algos   []algo      // ordering defines column order
}

// envConfig selects which competitors to build.
type envConfig struct {
	kind         dataset.Kind
	size         int
	coreCfg      core.Config
	withBaseline bool // Scan, R-tree, S2R
	withMetric   bool // DESIRE, RR*-tree
	queries      int
}

// buildEnv generates the dataset and constructs the requested indexes.
func buildEnv(s Setup, c envConfig) (*env, error) {
	ds, err := dataset.Generate(dataset.GenConfig{
		Kind: c.kind, Size: c.size, Dim: s.Dim, Seed: s.Seed + uint64(c.size),
	})
	if err != nil {
		return nil, err
	}
	space, err := metric.NewSpace(ds)
	if err != nil {
		return nil, err
	}
	idx, err := core.Build(ds, space, s.coreConfig(c.coreCfg))
	if err != nil {
		return nil, err
	}
	nq := c.queries
	if nq <= 0 {
		nq = s.Queries
	}
	e := &env{
		ds:      ds,
		space:   space,
		queries: ds.SampleQueries(nq, s.Seed+7),
		idx:     idx,
	}
	if c.withBaseline {
		e.algos = append(e.algos,
			algo{"Scan", scan.New(ds, space)},
			algo{"R-tree", rtree.NewBaseline(ds, space, 0)},
			algo{"S2R", s2rtree.Build(ds, space, s2rtree.Config{Seed: s.Seed})},
		)
	}
	e.algos = append(e.algos,
		algo{"CSSI", idx},
		algo{"CSSIA", approxSearcher{idx}},
	)
	if c.withMetric {
		d, err := desire.Build(ds, space, desire.Config{Seed: s.Seed})
		if err != nil {
			return nil, err
		}
		e.algos = append(e.algos,
			algo{"DESIRE", d},
			algo{"RR*-tree", rrstar.Build(ds, space, rrstar.Config{Seed: s.Seed})},
		)
	}
	return e, nil
}

// measurement aggregates one algorithm's behaviour over the workload.
type measurement struct {
	// MicrosPerQuery is the mean wall-clock query latency.
	MicrosPerQuery float64
	// Stats holds the per-query means of the work counters.
	Visited, Inter, Intra, DistCalcs float64
}

// run executes the workload against one searcher.
func run(e *env, s searcher, k int, lambda float64) measurement {
	var total metric.Stats
	start := time.Now()
	for qi := range e.queries {
		s.Search(&e.queries[qi], k, lambda, &total)
	}
	elapsed := time.Since(start)
	n := float64(len(e.queries))
	return measurement{
		MicrosPerQuery: float64(elapsed.Microseconds()) / n,
		Visited:        float64(total.VisitedObjects) / n,
		Inter:          float64(total.InterPruned) / n,
		Intra:          float64(total.IntraPruned) / n,
		DistCalcs:      float64(total.DistCalcs()) / n,
	}
}

// errorRate measures CSSIA's mean result error over many queries.
func errorRate(e *env, k int, lambda float64, queries []dataset.Object) float64 {
	exactAlgo := e.idx
	var total float64
	for qi := range queries {
		exact := exactAlgo.Search(&queries[qi], k, lambda, nil)
		approx := e.idx.SearchApprox(&queries[qi], k, lambda, nil)
		total += knn.ErrorRate(exact, approx)
	}
	return total / float64(len(queries))
}

// Formatting helpers shared by the experiment files.

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f4(v float64) string { return fmt.Sprintf("%.4f", v) }
func pct(v float64) string {
	return fmt.Sprintf("%.3f%%", 100*v)
}
func itoa(v int) string { return fmt.Sprintf("%d", v) }

// Runner is an experiment entry point.
type Runner func(Setup) ([]Table, error)

// registry maps experiment IDs to their runners; Register is called from
// the per-experiment files' init functions.
var registry = map[string]Runner{}

func register(id string, r Runner) { registry[id] = r }

// Get returns the runner for an experiment ID.
func Get(id string) (Runner, bool) {
	r, ok := registry[id]
	return r, ok
}

// IDs returns all registered experiment IDs, sorted with figures first.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool {
		pi, pj := idRank(out[i]), idRank(out[j])
		if pi != pj {
			return pi < pj
		}
		return out[i] < out[j]
	})
	return out
}

// idRank orders "fig3" < "fig10" < "table4" numerically.
func idRank(id string) int {
	base := 0
	num := 0
	rest := id
	if strings.HasPrefix(id, "fig") {
		rest = id[3:]
	} else if strings.HasPrefix(id, "table") {
		base = 1000
		rest = id[5:]
	} else {
		return 1 << 20
	}
	fmt.Sscanf(rest, "%d", &num)
	return base + num
}
