// Command cssibench regenerates the paper's tables and figures.
//
// Usage:
//
//	cssibench [-exp fig5,table4|all] [-scale 1.0] [-queries 50] [-seed 1] [-csv] [-json out.json]
//
// Each experiment prints one or more tables; -csv switches to
// comma-separated output for plotting, and -json additionally writes
// every table of the run into one machine-readable JSON file. -scale
// multiplies every dataset size (1.0 is laptop scale; the paper's
// server scale corresponds to roughly 250).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "comma-separated experiment IDs ("+strings.Join(experiments.IDs(), ",")+") or 'all'")
		scale   = flag.Float64("scale", 1.0, "dataset size multiplier (1.0 = laptop scale)")
		queries = flag.Int("queries", 50, "queries per measurement")
		errQ    = flag.Int("error-queries", 400, "queries for error-rate measurements")
		k       = flag.Int("k", 50, "number of nearest neighbors")
		lambda  = flag.Float64("lambda", 0.5, "balance parameter λ")
		dim     = flag.Int("dim", 100, "embedding dimensionality n")
		seed    = flag.Uint64("seed", 1, "random seed")
		csv     = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		outDir  = flag.String("out", "", "also write each table as CSV into this directory")
		jsonOut = flag.String("json", "", "also write all tables of the run as JSON to this file")
		list    = flag.Bool("list", false, "list experiment IDs and exit")
	)
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}

	setup := experiments.Setup{
		Scale: *scale, Queries: *queries, ErrorQueries: *errQ,
		K: *k, Lambda: *lambda, Dim: *dim, Seed: *seed,
	}

	var ids []string
	if *exp == "all" {
		ids = experiments.IDs()
	} else {
		ids = strings.Split(*exp, ",")
	}
	var collected []experiments.Table
	for _, id := range ids {
		id = strings.TrimSpace(id)
		runner, ok := experiments.Get(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "cssibench: unknown experiment %q (try -list)\n", id)
			os.Exit(2)
		}
		start := time.Now()
		tables, err := runner(setup)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cssibench: %s: %v\n", id, err)
			os.Exit(1)
		}
		for i := range tables {
			if *csv {
				tables[i].CSV(os.Stdout)
				fmt.Println()
			} else {
				tables[i].Render(os.Stdout)
			}
			if *outDir != "" {
				if err := writeCSV(*outDir, id, i, &tables[i]); err != nil {
					fmt.Fprintf(os.Stderr, "cssibench: %v\n", err)
					os.Exit(1)
				}
			}
		}
		collected = append(collected, tables...)
		if !*csv {
			fmt.Printf("(%s completed in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
		}
	}
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, setup, collected); err != nil {
			fmt.Fprintf(os.Stderr, "cssibench: %v\n", err)
			os.Exit(1)
		}
	}
}

// writeJSON stores the run's setup and every produced table as one JSON
// document (the machine-readable counterpart of the rendered tables,
// e.g. BENCH_overlay.json in the repo root).
func writeJSON(path string, setup experiments.Setup, tables []experiments.Table) error {
	doc := struct {
		Setup  experiments.Setup   `json:"setup"`
		Tables []experiments.Table `json:"tables"`
	}{Setup: setup, Tables: tables}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// writeCSV stores one table as <dir>/<experiment>_<n>.csv.
func writeCSV(dir, id string, n int, t *experiments.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(fmt.Sprintf("%s/%s_%d.csv", dir, id, n))
	if err != nil {
		return err
	}
	defer f.Close()
	t.CSV(f)
	return nil
}
