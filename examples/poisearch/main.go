// poisearch demonstrates point-of-interest search over Yelp-like review
// data: a user standing at a location types a free-text query, and the
// index returns businesses that are *both* nearby and semantically
// relevant. Sweeping λ shows how the ranking morphs from "most relevant
// anywhere" (λ=0) to "closest whatever it is" (λ=1) — the query model of
// the paper's Problem 1.
package main

import (
	"fmt"
	"log"
	"strings"

	"repro"
)

func main() {
	// Yelp-like data: 11 dense metropolitan areas, review text
	// correlated with business category.
	ds, err := cssi.GenerateDataset(cssi.DatasetConfig{
		Kind: cssi.YelpLike,
		Size: 15000,
		Seed: 7,
	})
	if err != nil {
		log.Fatal(err)
	}
	idx, err := cssi.Build(ds, cssi.Options{Seed: 7})
	if err != nil {
		log.Fatal(err)
	}

	// The "user": standing at the location of some known venue, asking
	// for things that read like another venue's reviews. We borrow the
	// text of a review so the synthetic vocabulary stays in-model — with
	// real embeddings this would be any user-typed sentence.
	here := ds.Objects[4321]
	wanted := ds.Objects[987]
	queryText := wanted.Text
	vec, ok := ds.Model.EncodeDocument(queryText)
	if !ok {
		log.Fatal("query text too short after stop-word removal")
	}
	q := cssi.Object{ID: 1 << 30, X: here.X, Y: here.Y, Text: queryText, Vec: vec}

	fmt.Printf("you are at (%.3f, %.3f), searching for reviews like:\n  %q\n\n",
		q.X, q.Y, truncate(queryText, 70))

	for _, lambda := range []float64{0.0, 0.5, 0.9} {
		results, err := idx.Do(cssi.SearchRequest{Query: &q, K: 5, Lambda: lambda})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("λ = %.1f (%s):\n", lambda, describe(lambda))
		for i, r := range results {
			o, _ := idx.Object(r.ID)
			dist := kilometersish(q.X, q.Y, o.X, o.Y)
			fmt.Printf("  %d. d=%.4f  ~%.1f units away  %q\n",
				i+1, r.Dist, dist, truncate(o.Text, 48))
		}
		fmt.Println()
	}

	// The approximate algorithm answers the same query faster; compare
	// the result sets.
	exact, err := idx.Do(cssi.SearchRequest{Query: &q, K: 10, Lambda: 0.5})
	if err != nil {
		log.Fatal(err)
	}
	approx, err := idx.Do(cssi.SearchRequest{Query: &q, K: 10, Lambda: 0.5, Approx: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("CSSIA vs CSSI on this query (k=10, λ=0.5): error %.1f%%\n",
		100*cssi.ErrorRate(exact, approx))
}

func describe(lambda float64) string {
	switch {
	case lambda == 0:
		return "pure semantic match, distance ignored"
	case lambda < 0.6:
		return "balanced"
	default:
		return "mostly spatial"
	}
}

// kilometersish scales normalized coordinates to a human-feeling number.
func kilometersish(ax, ay, bx, by float64) float64 {
	dx, dy := ax-bx, ay-by
	return 100 * (dx*dx + dy*dy)
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return strings.TrimRight(s[:n], " ") + "…"
}
