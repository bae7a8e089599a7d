package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/pca"
)

// tinySetup keeps the smoke tests fast: a small fraction of the default
// laptop scale with few queries.
func tinySetup() Setup {
	return Setup{Scale: 0.05, Queries: 5, ErrorQueries: 10, K: 10, Lambda: 0.5, Dim: 32, Seed: 1}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
		"fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
		"table2", "table4", "table5", "table6",
		"ablation", "parallel", "skew",
	}
	ids := IDs()
	if len(ids) != len(want) {
		t.Fatalf("registry has %d entries: %v", len(ids), ids)
	}
	for i, id := range want {
		if ids[i] != id {
			t.Fatalf("IDs()[%d] = %q, want %q (full: %v)", i, ids[i], id, ids)
		}
	}
	for _, id := range want {
		if _, ok := Get(id); !ok {
			t.Fatalf("experiment %q not registered", id)
		}
	}
	if _, ok := Get("fig99"); ok {
		t.Fatal("unknown experiment resolved")
	}
}

// The experiments build the index cssi.Build builds: the paper's
// randomized-SVD PCA, not core.Config's zero PCAMethod (the exact path).
func TestExperimentsBuildRandomizedPCA(t *testing.T) {
	s := tinySetup()
	s.applyDefaults()
	e, err := buildEnv(s, envConfig{kind: dataset.TwitterLike, size: 400})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.idx.Config().PCAMethod; got != pca.Randomized {
		t.Fatalf("experiment index PCAMethod = %v, want pca.Randomized (%v)", got, pca.Randomized)
	}
}

// Every experiment must run end-to-end at tiny scale and produce
// non-empty tables with consistent row widths.
func TestAllExperimentsSmoke(t *testing.T) {
	s := tinySetup()
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			r, _ := Get(id)
			tables, err := r(s)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if len(tables) == 0 {
				t.Fatalf("%s produced no tables", id)
			}
			for ti, tb := range tables {
				if tb.ID != id {
					t.Fatalf("%s table %d has ID %q", id, ti, tb.ID)
				}
				if len(tb.Rows) == 0 {
					t.Fatalf("%s table %d (%s) has no rows", id, ti, tb.Title)
				}
				for ri, row := range tb.Rows {
					if len(row) != len(tb.Header) {
						t.Fatalf("%s table %d row %d has %d cells for %d columns",
							id, ti, ri, len(row), len(tb.Header))
					}
				}
			}
		})
	}
}

func TestTableRenderAndCSV(t *testing.T) {
	tb := Table{
		ID: "figX", Title: "Demo", Note: "a note",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
	}
	var buf bytes.Buffer
	tb.Render(&buf)
	out := buf.String()
	for _, want := range []string{"figX", "Demo", "a note", "333"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered output missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	if err := tb.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 || lines[0] != "a,bb" || lines[2] != "333,4" {
		t.Fatalf("CSV output wrong: %q", buf.String())
	}
}

// The pruning identity must hold in the Fig. 12 output: inter + intra +
// visited = |O| for both algorithms.
func TestFig12Identity(t *testing.T) {
	tables, err := Fig12(tinySetup())
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	for _, row := range tb.Rows {
		sum, _ := strconv.ParseFloat(row[4], 64)
		total, _ := strconv.ParseFloat(row[5], 64)
		if diff := sum - total; diff > 0.51 || diff < -0.51 {
			t.Fatalf("identity broken in row %v", row)
		}
	}
}

// Fig. 3's headline claim must reproduce even at tiny scale: the
// projected distance distribution has higher variance than the original.
func TestFig3VarianceRatio(t *testing.T) {
	s := tinySetup()
	s.Scale = 0.2 // needs a few thousand objects for a stable histogram
	tables, err := Fig3(s)
	if err != nil {
		t.Fatal(err)
	}
	varT := tables[1]
	ratio, err := strconv.ParseFloat(varT.Rows[2][1], 64)
	if err != nil {
		t.Fatal(err)
	}
	if ratio <= 1 {
		t.Fatalf("projected variance not larger: ratio %v", ratio)
	}
}

func TestSetupDefaults(t *testing.T) {
	var s Setup
	s.applyDefaults()
	if s.Scale != 1 || s.Queries != 50 || s.K != 50 || s.Lambda != 0.5 || s.Dim != 100 {
		t.Fatalf("defaults wrong: %+v", s)
	}
	if s.size(100) != 100 || s.size(20000) != 20000 {
		t.Fatal("size scaling wrong at scale 1")
	}
	s.Scale = 0.001
	if s.size(20000) != 100 {
		t.Fatalf("size floor not applied: %d", s.size(20000))
	}
}

func TestIDRankOrdering(t *testing.T) {
	if idRank("fig3") >= idRank("fig10") {
		t.Fatal("fig3 should rank before fig10")
	}
	if idRank("fig16") >= idRank("table4") {
		t.Fatal("figures should rank before tables")
	}
}
