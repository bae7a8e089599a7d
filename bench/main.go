// Command bench is the repository's one performance benchmark: four
// workloads, each measured end to end against an in-run brute-force scan
// (which is also the correctness oracle) and, with -trace 1, layer by
// layer from outside each layer's public API. README.md in this
// directory documents every workload and metric and the noise method.
//
//	go run ./bench -workload exact-flat -seed 1            # end-to-end metrics
//	go run ./bench -workload exact-flat -seed 1 -trace 1   # per-layer metrics
//	go run ./bench -aa 10                                  # A/A acceptance run
//
// The last line of standard output is one JSON object; everything above
// it is for people. The exit code is non-zero when a correctness check
// fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	quick    bool
	spans    string
}

// metric1 is one reported measurement.
type metric1 struct {
	Name    string
	Value   float64
	Unit    string
	Samples int // observations behind the value
}

// metricList collects measurements in reporting order.
type metricList []metric1

func (l *metricList) add(name string, v float64, unit string, samples int) {
	*l = append(*l, metric1{Name: name, Value: v, Unit: unit, Samples: samples})
}

// report is everything one run produced.
type report struct {
	env       [][2]string
	metrics   []metric1
	attempted int
	failed    int
	correct   bool
	failures  []string
	warnings  []string
}

// minRecall is the floor an approximate workload's recall@10 must hold
// for the run to count as correct.
const minRecall = 0.99

// execute runs one workload once.
func execute(cfg config) (*report, error) {
	sp, ok := findSpec(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	sz := fullSizes
	if cfg.quick {
		sp, sz = sp.quick(), quickSizes
	}
	started := time.Now()
	d, err := generate(sp, sz, cfg.seed)
	if err != nil {
		return nil, err
	}
	r := &run{sp: sp, sz: sz, d: d, wr: writer{d: d}}
	r.or = newOracle(d.corpus.Objects, dim, d.space.DsMax, d.space.DtMax)
	r.recalls = make([]float64, len(d.verify))
	for i := range r.recalls {
		r.recalls[i] = -1
	}
	generated := time.Since(started)

	timed := sz.setups
	if cfg.trace {
		timed = 1 // the traced run spends its set-up budget on the ladder's builds instead
	}
	setupSecs, heapMB, err := r.setUps(timed)
	if err != nil {
		return nil, err
	}
	defer func() { _ = r.t.close() }()

	var lp *layerProbe
	if cfg.trace {
		r.rec = newSpanRec()
		if lp, err = r.beforeRounds(); err != nil {
			return nil, err
		}
		defer func() { _ = lp.lad.web.close() }()
		if t, ok := r.t.(*httpTarget); ok {
			t.handler = r.rec.wrap(t.handler)
		}
	}

	if sp.shape == httpShape {
		r.warmHot()
	}
	r.measure(0, 1, r.mainUnits(), r.mainSlice) // warm-up round, discarded
	budget := time.Duration(cfg.seconds) * time.Second
	if cfg.trace {
		budget /= 2 // the other half goes to the ladder and probes
	}
	main := r.measure(budget, sz.rounds, r.mainUnits(), r.mainSlice)
	rep := &report{}
	if cfg.trace {
		// Climb before a read-only workload's write rounds, so the phase
		// pass sees the index the main rounds saw.
		if rep.metrics, err = r.layerMetrics(lp, main); err != nil {
			return nil, err
		}
	}
	rw := main
	if sp.shape != shardedShape {
		done := len(main.rounds)
		rw = r.measure(0, sz.rwRounds, sz.rwReads, func(i, lo, hi int, res *roundResult) {
			r.mixedSlice(done+i, lo, hi, sz.rwReads, sz.rwWrites, res)
		})
	}
	recall, asked := r.recall()
	if cfg.trace {
		rep.metrics = append(rep.metrics, r.writeMetrics(lp, rw)...)
		if cfg.spans != "" {
			if err := r.rec.writeFile(cfg.spans); err != nil {
				return nil, fmt.Errorf("writing spans: %w", err)
			}
		}
	} else {
		m, w := main.stats(nil), rw.stats(nil)
		rep.metrics = []metric1{
			{"setup_s", median(setupSecs), "s", len(setupSecs)},
			{"query_p50_rel", m.p50 / m.ref, "x_scan", m.reads * m.rounds},
			{"query_p99_rel", m.p99 / m.ref, "x_scan", m.reads * m.rounds},
			{"throughput_rel", float64(m.ops) * m.ref / m.wall, "ops/scan", m.ops * m.rounds},
			{"write_p50_rel", w.w50 / w.ref, "x_scan", w.writes * w.rounds},
			{"recall_at_10", recall, "ratio", asked},
			{"index_heap_mb", heapMB, "MB", 1},
		}
	}

	if sp.approx && !cfg.quick && recall < minRecall { // a 2,000-object index is too coarse for the floor
		r.fail("recall@10 %.4f below %.2f", recall, minRecall)
	}
	rep.attempted, rep.failed, rep.failures = r.attempted, r.failed, r.failures
	rep.correct = r.failed == 0
	scanCV := cv(main.roundScan)
	if scanCV > 0.10 {
		rep.warnings = append(rep.warnings, fmt.Sprintf("ref.scan_cv %.3f > 0.10: the host's speed changed between rounds of this run", scanCV))
	}
	rep.env = [][2]string{
		{"workload", sp.name}, {"seed", fmt.Sprint(cfg.seed)}, {"trace", fmt.Sprint(cfg.trace)}, {"quick", fmt.Sprint(cfg.quick)},
		{"n", fmt.Sprint(sp.n)}, {"dim", fmt.Sprint(dim)}, {"k", fmt.Sprint(topK)}, {"lambda", fmt.Sprint(lambda)},
		{"rounds", fmt.Sprint(len(main.rounds))}, {"ops_per_round", fmt.Sprint(main.rounds[0].ops)},
		{"write_rounds", fmt.Sprint(len(rw.rounds))},
		{"GOMAXPROCS", fmt.Sprint(nproc())}, {"NumCPU", fmt.Sprint(runtime.NumCPU())},
		{"go", runtime.Version()}, {"GOGC", gogc()}, {"commit", commit()},
		{"ref_scan_us", fmt.Sprintf("%.1f", percentile(main.scans, lowQ))}, {"ref_scan_cv", fmt.Sprintf("%.4f", scanCV)},
		{"generate_s", fmt.Sprintf("%.2f", generated.Seconds())},
		{"measure_s", fmt.Sprintf("%.2f", main.wallS)},
		{"wall_s", fmt.Sprintf("%.2f", time.Since(started).Seconds())},
	}
	return rep, nil
}

func gogc() string {
	if v := os.Getenv("GOGC"); v != "" {
		return v
	}
	return "100"
}

// commit is the VCS revision the binary was built from, when the
// toolchain recorded one (a checkout that is not a repository has none).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// print writes the human-readable block and then the one-line JSON
// result.
func (rep *report) print(w io.Writer) error {
	for _, kv := range rep.env {
		fmt.Fprintf(w, "# %-14s %s\n", kv[0], kv[1])
	}
	fmt.Fprintf(w, "%-36s %16s  %-9s %s\n", "metric", "value", "unit", "samples")
	for _, m := range rep.metrics {
		fmt.Fprintf(w, "%-36s %16.6g  %-9s %d\n", m.Name, m.Value, m.Unit, m.Samples)
	}
	for _, s := range rep.warnings {
		fmt.Fprintf(w, "WARNING: %s\n", s)
	}
	for _, s := range rep.failures {
		fmt.Fprintf(w, "FAILED: %s\n", s)
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{rep.correct, rep.attempted, rep.failed, map[string]mv{}}
	for _, m := range rep.metrics {
		line.Metrics[m.Name] = mv{m.Value, m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func main() {
	var cfg config
	var trace, aa int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: exact-flat, approx-yelp-batch, http-hotcold or rw-sharded")
	flag.Uint64Var(&cfg.seed, "seed", 1, "draws the queries, their order, the hot set and the write sequence")
	flag.IntVar(&cfg.seconds, "seconds", 12, "how long the measured rounds run")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting the per-layer metrics, 0 = end-to-end metrics")
	flag.BoolVar(&cfg.quick, "quick", false, "unit-test sizes: n=2,000, two rounds")
	flag.StringVar(&cfg.spans, "spans", "", "with -trace 1, write the recorded spans to this file as JSON")
	flag.IntVar(&aa, "aa", 0, "A/A mode: run every workload N times in each of two alternating sets and compare")
	flag.Parse()
	cfg.trace = trace != 0

	if aa > 0 {
		if err := runAA(aa, cfg, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	rep, err := execute(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if err := rep.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if !rep.correct {
		os.Exit(1)
	}
}
