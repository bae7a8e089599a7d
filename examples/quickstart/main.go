// Quickstart: generate a spatio-textual dataset, build the CSSI index,
// and run one exact and one approximate k-NN query.
package main

import (
	"fmt"
	"log"
	"time"

	"repro"
)

func main() {
	// 1. Obtain spatio-textual data. GenerateDataset is the synthetic
	// stand-in for geo-tagged tweets; in a real application you would
	// fill []cssi.Object with your own locations and embeddings.
	ds, err := cssi.GenerateDataset(cssi.DatasetConfig{
		Kind: cssi.TwitterLike,
		Size: 10000,
		Seed: 42,
	})
	if err != nil {
		log.Fatal(err)
	}

	// 2. Build the index (paper Alg. 1). The zero Options reproduce the
	// paper's defaults: f=0.3, m=2, a 10% clustering sample.
	start := time.Now()
	idx, err := cssi.Build(ds, cssi.Options{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("indexed %d objects into %d hybrid clusters in %v\n\n",
		idx.Len(), idx.NumClusters(), time.Since(start).Round(time.Millisecond))

	// 3. Query. λ balances spatial vs semantic similarity: 1 is pure
	// location search, 0 is pure meaning search.
	q := ds.Objects[7]
	const k, lambda = 5, 0.5

	var st cssi.Stats
	exact, err := idx.Do(cssi.SearchRequest{Query: &q, K: k, Lambda: lambda, Stats: &st})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("CSSI (exact) — visited %d of %d objects:\n", st.VisitedObjects, idx.Len())
	for i, r := range exact {
		fmt.Printf("  %d. id=%d distance=%.4f\n", i+1, r.ID, r.Dist)
	}

	// 4. The approximate variant trades a sub-1%% error for speed.
	approx := idx.SearchApprox(&q, k, lambda)
	fmt.Printf("\nCSSIA (approximate) — result error vs exact: %.2f%%\n",
		100*cssi.ErrorRate(exact, approx))
	for i, r := range approx {
		fmt.Printf("  %d. id=%d distance=%.4f\n", i+1, r.ID, r.Dist)
	}
}
