// tuning explores the index's two construction knobs through the public
// API — the projection dimensionality m and the cluster multiplier f —
// and reports the latency/accuracy trade-offs the paper studies in
// Figs. 9-11. Use it as a template for picking parameters on your own
// data.
package main

import (
	"fmt"
	"log"
	"time"

	"repro"
)

const (
	size    = 12000
	k       = 25
	lambda  = 0.5
	queries = 30
)

func main() {
	ds, err := cssi.GenerateDataset(cssi.DatasetConfig{
		Kind: cssi.TwitterLike, Size: size, Seed: 21,
	})
	if err != nil {
		log.Fatal(err)
	}
	qs := ds.SampleQueries(queries, 5)

	fmt.Println("m sweep (f=0.3): projection dimensionality")
	fmt.Println("  m   build     CSSI µs/q  CSSIA µs/q  CSSIA err")
	for _, m := range []int{1, 2, 3, 5, 8} {
		report(ds, qs, cssi.Options{M: m, Seed: 21}, fmt.Sprintf("%3d", m))
	}

	fmt.Println()
	fmt.Println("f sweep (m=2): cluster granularity")
	fmt.Println("  f     build     CSSI µs/q  CSSIA µs/q  CSSIA err")
	for _, f := range []float64{0.1, 0.3, 0.5, 0.9} {
		report(ds, qs, cssi.Options{F: f, Seed: 21}, fmt.Sprintf("%5.1f", f))
	}

	fmt.Println()
	fmt.Println("reading the tables: m=2 keeps CSSIA fast at <1% error (m=1 is")
	fmt.Println("degenerate); more clusters (larger f) prune better until the")
	fmt.Println("sorting overhead catches up — the paper's defaults are m=2, f=0.3.")
}

func report(ds *cssi.Dataset, qs []cssi.Object, opts cssi.Options, label string) {
	start := time.Now()
	idx, err := cssi.Build(ds, opts)
	if err != nil {
		log.Fatal(err)
	}
	buildTime := time.Since(start)

	var exactTotal, approxTotal time.Duration
	var errSum float64
	for qi := range qs {
		req := cssi.SearchRequest{Query: &qs[qi], K: k, Lambda: lambda}
		t0 := time.Now()
		exact, err := idx.Do(req)
		exactTotal += time.Since(t0)
		if err != nil {
			log.Fatal(err)
		}
		req.Approx = true
		t0 = time.Now()
		approx, err := idx.Do(req)
		approxTotal += time.Since(t0)
		if err != nil {
			log.Fatal(err)
		}
		errSum += cssi.ErrorRate(exact, approx)
	}
	n := float64(len(qs))
	fmt.Printf("  %s  %-8v  %-9.0f  %-10.0f  %.2f%%\n",
		label, buildTime.Round(time.Millisecond),
		float64(exactTotal.Microseconds())/n,
		float64(approxTotal.Microseconds())/n,
		100*errSum/n)
}
