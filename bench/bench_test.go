package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"

	cssi "repro"
)

// benchmarkFile is the contract at the repository root that names every
// workload and metric this package must emit.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }  `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadContract(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c benchmarkFile
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// metric returns the named metric of a report.
func (rep *report) metric(name string) (metric1, bool) {
	for _, m := range rep.metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metric1{}, false
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestQuickRuns drives every workload through both run kinds at -quick
// size and holds the output to BENCHMARK.json: each named metric is
// emitted exactly once with its unit and a sample count, nothing
// unnamed is emitted, every operation succeeds, and exact answers are
// exact.
func TestQuickRuns(t *testing.T) {
	c := loadContract(t)
	if len(c.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json names %d workloads, the package has %d", len(c.Workloads), len(specs))
	}
	for _, w := range c.Workloads {
		sp, ok := findSpec(w.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
		if w.Why == "" {
			t.Errorf("%s: BENCHMARK.json gives no reason for the workload", w.Name)
		}
		for _, trace := range []bool{false, true} {
			want := c.EndToEnd
			if trace {
				want = c.PerLayer
			}
			rep, err := execute(config{workload: w.Name, seed: 7, seconds: 1, trace: trace, quick: true})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !rep.correct || rep.failed != 0 || rep.attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d: %v", w.Name, trace, rep.correct, rep.attempted, rep.failed, rep.failures)
			}
			seen := map[string]int{}
			for _, m := range rep.metrics {
				seen[m.Name]++
				if !nameRE.MatchString(m.Name) {
					t.Errorf("%s: metric name %q is outside the contract's alphabet", w.Name, m.Name)
				}
			}
			for _, m := range want {
				got, ok := rep.metric(m.Name)
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s is not emitted", w.Name, trace, m.Name)
				case seen[m.Name] != 1:
					t.Errorf("%s trace=%v: metric %s is emitted %d times", w.Name, trace, m.Name, seen[m.Name])
				case got.Unit != m.Unit:
					t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", w.Name, m.Name, got.Unit, m.Unit)
				case got.Samples < 1 && !strings.HasPrefix(m.Name, "write.compaction"):
					t.Errorf("%s: metric %s reports no samples", w.Name, m.Name)
				}
				delete(seen, m.Name)
			}
			for name := range seen {
				t.Errorf("%s trace=%v: metric %s is emitted but not in BENCHMARK.json", w.Name, trace, name)
			}
			if !trace {
				if m, _ := rep.metric("recall_at_10"); !sp.approx && m.Value != 1 {
					t.Errorf("%s: exact recall@10 = %v, want 1", w.Name, m.Value)
				}
				for _, m := range rep.metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, m.Value)
					}
				}
			}
		}
	}
}

// TestSameSeedSameCounts: the counts a single thread produces are a
// function of the seed alone. (write.compactions is left out: a write
// that lands while a background fold is in flight is replayed rather
// than buffered, so the count can differ by one between runs.)
func TestSameSeedSameCounts(t *testing.T) {
	for _, name := range []string{"http-hotcold", "rw-sharded"} {
		var runs [2]*report
		for i := range runs {
			rep, err := execute(config{workload: name, seed: 11, seconds: 1, trace: true, quick: true})
			if err != nil {
				t.Fatal(err)
			}
			runs[i] = rep
		}
		for _, m := range []string{"core.visited_per_query", "core.clusters_examined_per_query", "rescache.hits", "rescache.misses", "sharded.read_amplification"} {
			a, _ := runs[0].metric(m)
			b, _ := runs[1].metric(m)
			if a.Value != b.Value {
				t.Errorf("%s: %s = %v then %v with the same seed", name, m, a.Value, b.Value)
			}
		}
	}
}

// TestResultLine: the last line of output is the one JSON object the
// driver reads, with exactly the contract's keys.
func TestResultLine(t *testing.T) {
	rep, err := execute(config{workload: "exact-flat", seed: 3, seconds: 1, quick: true})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := rep.print(&out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := line[k]; !ok {
			t.Errorf("result line lacks %q", k)
		}
		delete(line, k)
	}
	for k := range line {
		t.Errorf("result line has extra key %q", k)
	}
}

// TestOracleTies: a different ID at a tied distance is an exact answer;
// a wrong distance or a dead ID is not.
func TestOracleTies(t *testing.T) {
	d, err := generate(specs[0].quick(), quickSizes, 1)
	if err != nil {
		t.Fatal(err)
	}
	objs := append(d.corpus.Objects[:50:50], d.corpus.Objects[0]) // a duplicate point under a new ID
	objs[50].ID = 1 << 30
	or := newOracle(objs, dim, d.space.DsMax, d.space.DtMax)
	q := &d.corpus.Objects[0]
	want := or.knn(nil, q, 3, lambda)
	if want[0].Dist != 0 || want[1].Dist != 0 {
		t.Fatalf("the duplicated point should tie at distance 0, got %v", want)
	}
	swapped := append([]cssi.Result(nil), want...)
	swapped[0].ID, swapped[1].ID = swapped[1].ID, swapped[0].ID
	if err := or.checkExact(q, lambda, swapped, want); err != nil {
		t.Errorf("tied IDs in the other order rejected: %v", err)
	}
	wrong := append([]cssi.Result(nil), want...)
	wrong[2].Dist *= 1.001
	if or.checkExact(q, lambda, wrong, want) == nil {
		t.Error("a distance off by 0.1% was accepted")
	}
	or.remove(want[2].ID)
	if or.checkExact(q, lambda, want, want) == nil {
		t.Error("a deleted object was accepted as an answer")
	}
	if got := or.recall(q, lambda, want, or.knn(nil, q, 3, lambda)); got >= 1 {
		t.Errorf("recall with a deleted object in the answer = %v, want < 1", got)
	}
}
