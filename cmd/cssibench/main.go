// Command cssibench regenerates the paper's tables and figures.
//
// Usage:
//
//	cssibench [-exp fig5,table4|all] [-scale 1.0] [-queries 50] [-seed 1] [-csv] [-out dir]
//
// Each experiment prints one or more tables; -csv switches to
// comma-separated output for plotting, and -out additionally writes
// each table as a CSV file into a directory. -scale multiplies every
// dataset size (1.0 is laptop scale; the paper's server scale
// corresponds to roughly 250).
package main

import (
	"errors"
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
				if err := tables[i].CSV(os.Stdout); err != nil {
					fmt.Fprintf(os.Stderr, "cssibench: %v\n", err)
					os.Exit(1)
				}
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
		if !*csv {
			fmt.Printf("(%s completed in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
		}
	}
}

// writeCSV stores one table as <dir>/<experiment>_<n>.csv. A failed
// write or close is an error: a short file never reports success.
func writeCSV(dir, id string, n int, t *experiments.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(fmt.Sprintf("%s/%s_%d.csv", dir, id, n))
	if err != nil {
		return err
	}
	return errors.Join(t.CSV(f), f.Close())
}
