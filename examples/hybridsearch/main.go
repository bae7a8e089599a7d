// hybridsearch demonstrates the extended query surface layered on top of
// the hybrid-cluster index: classic boolean keyword filtering (the exact
// matching of the spatial-keyword literature, §2 of the paper) combined
// with semantic ranking, plus range queries and map-viewport ("box")
// queries.
package main

import (
	"fmt"
	"log"
	"strings"

	"repro"
)

func main() {
	ds, err := cssi.GenerateDataset(cssi.DatasetConfig{
		Kind: cssi.YelpLike, Size: 12000, Seed: 17,
	})
	if err != nil {
		log.Fatal(err)
	}
	idx, err := cssi.Build(ds, cssi.Options{Seed: 17})
	if err != nil {
		log.Fatal(err)
	}
	idx.EnableKeywordFilter()

	q := ds.Objects[512]
	fmt.Printf("query object at (%.3f, %.3f): %q\n\n", q.X, q.Y, truncate(q.Text, 60))

	// 1. Boolean keyword constraint + semantic ranking: results MUST
	// contain the keyword, and are ranked by the λ-weighted distance.
	keyword := strings.Fields(ds.Objects[777].Text)[0]
	fmt.Printf("k-NN among objects containing %q (df=%d):\n", keyword, idx.KeywordDocFrequency(keyword))
	results := search(idx, cssi.SearchRequest{Query: &q, K: 5, Lambda: 0.5, Keywords: []string{keyword}})
	for i, r := range results {
		o, _ := idx.Object(r.ID)
		fmt.Printf("  %d. d=%.4f %q\n", i+1, r.Dist, truncate(o.Text, 50))
	}

	// 2. Range query: everything within a combined distance budget (K
	// caps the answer; the corpus size keeps every match).
	radius := 0.05
	within := search(idx, cssi.SearchRequest{Query: &q, K: idx.Len(), Lambda: 0.5, Radius: &radius})
	fmt.Printf("\nobjects within combined distance 0.05: %d\n", len(within))

	// 3. Viewport query: the semantically closest objects inside a map
	// window around the user (λ = 0 ranks by meaning alone).
	const half = 0.05
	box := search(idx, cssi.SearchRequest{Query: &q, K: 5, Window: &cssi.Window{LoX: q.X - half, LoY: q.Y - half, HiX: q.X + half, HiY: q.Y + half}})
	fmt.Printf("\nmost semantically similar inside the %.2f-wide viewport:\n", 2*half)
	for i, r := range box {
		o, _ := idx.Object(r.ID)
		fmt.Printf("  %d. dt=%.4f (%.3f,%.3f) %q\n", i+1, r.Dist, o.X, o.Y, truncate(o.Text, 44))
	}

	// 4. The same constraint set keeps holding as the data changes.
	nova := q
	nova.ID = 999999
	nova.Text = keyword + " " + nova.Text
	if err := idx.Insert(nova); err != nil {
		log.Fatal(err)
	}
	results = search(idx, cssi.SearchRequest{Query: &q, K: 1, Lambda: 0.5, Keywords: []string{keyword}})
	fmt.Printf("\nafter inserting a matching twin at the query location, top hit is id=%d (d=%.4f)\n",
		results[0].ID, results[0].Dist)
}

func search(idx *cssi.Index, req cssi.SearchRequest) []cssi.Result {
	res, err := idx.Do(req)
	if err != nil {
		log.Fatal(err)
	}
	return res
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return strings.TrimRight(s[:n], " ") + "…"
}
