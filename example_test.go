package cssi_test

import (
	"fmt"

	"repro"
)

// Building an index and running an exact query.
func ExampleBuild() {
	ds, err := cssi.GenerateDataset(cssi.DatasetConfig{
		Kind: cssi.TwitterLike, Size: 2000, Dim: 32, Seed: 1,
	})
	if err != nil {
		panic(err)
	}
	idx, err := cssi.Build(ds, cssi.Options{Seed: 1})
	if err != nil {
		panic(err)
	}
	q := ds.Objects[0]
	results, err := idx.Do(cssi.SearchRequest{Query: &q, K: 3, Lambda: 0.5})
	if err != nil {
		panic(err)
	}
	fmt.Println("results:", len(results))
	fmt.Println("nearest is the query itself:", results[0].ID == q.ID && results[0].Dist == 0)
	// Output:
	// results: 3
	// nearest is the query itself: true
}

// The approximate algorithm answers from the same index; its error is
// measured against the exact result.
func ExampleIndex_Do_approx() {
	ds, _ := cssi.GenerateDataset(cssi.DatasetConfig{
		Kind: cssi.YelpLike, Size: 2000, Dim: 32, Seed: 2,
	})
	idx, _ := cssi.Build(ds, cssi.Options{Seed: 2})
	q := ds.Objects[42]
	exact, _ := idx.Do(cssi.SearchRequest{Query: &q, K: 10, Lambda: 0.5})
	approx, _ := idx.Do(cssi.SearchRequest{Query: &q, K: 10, Lambda: 0.5, Approx: true})
	fmt.Println("error below 20%:", cssi.ErrorRate(exact, approx) < 0.2)
	// Output:
	// error below 20%: true
}

// Range queries return the objects within a combined distance, nearest
// first; K caps the answer.
func ExampleIndex_Do_range() {
	ds, _ := cssi.GenerateDataset(cssi.DatasetConfig{
		Kind: cssi.TwitterLike, Size: 1000, Dim: 32, Seed: 3,
	})
	idx, _ := cssi.Build(ds, cssi.Options{Seed: 3})
	q := ds.Objects[5]
	radius := 0.1
	within, _ := idx.Do(cssi.SearchRequest{Query: &q, K: 100, Lambda: 0.5, Radius: &radius})
	allInside := true
	for _, r := range within {
		if r.Dist > 0.1 {
			allInside = false
		}
	}
	fmt.Println("found some:", len(within) > 0)
	fmt.Println("all within radius:", allInside)
	// Output:
	// found some: true
	// all within radius: true
}

// Incremental maintenance keeps the index exact while data changes.
func ExampleIndex_Insert() {
	ds, _ := cssi.GenerateDataset(cssi.DatasetConfig{
		Kind: cssi.TwitterLike, Size: 500, Dim: 32, Seed: 4,
	})
	idx, _ := cssi.Build(ds, cssi.Options{Seed: 4})
	o := ds.Objects[0]
	o.ID = 900000
	o.X, o.Y = 0.123, 0.456
	if err := idx.Insert(o); err != nil {
		panic(err)
	}
	fmt.Println("objects:", idx.Len())
	got, _ := idx.Do(cssi.SearchRequest{Query: &o, K: 1, Lambda: 1}) // pure spatial: the newcomer is its own NN
	fmt.Println("self found:", got[0].ID == o.ID)
	// Output:
	// objects: 501
	// self found: true
}

// Keyword-constrained semantic search: results must contain the keyword.
func ExampleIndex_Do_keywords() {
	ds, _ := cssi.GenerateDataset(cssi.DatasetConfig{
		Kind: cssi.YelpLike, Size: 1500, Dim: 32, Seed: 5,
	})
	idx, _ := cssi.Build(ds, cssi.Options{Seed: 5})
	idx.EnableKeywordFilter()

	// The most frequent synthetic word; real applications pass user input.
	keyword := ds.Model.Vocab.Words[0]
	q := ds.Objects[3]
	results, err := idx.Do(cssi.SearchRequest{Query: &q, K: 5, Lambda: 0.5, Keywords: []string{keyword}})
	fmt.Println("usable keywords:", err == nil)
	fmt.Println("got results:", len(results) > 0)
	// Output:
	// usable keywords: true
	// got results: true
}

// Windowed semantic search: the nearest meanings inside a map viewport
// (λ = 0 ranks by meaning alone).
func ExampleIndex_Do_window() {
	ds, _ := cssi.GenerateDataset(cssi.DatasetConfig{
		Kind: cssi.TwitterLike, Size: 1500, Dim: 32, Seed: 6,
	})
	idx, _ := cssi.Build(ds, cssi.Options{Seed: 6})
	q := ds.Objects[10]
	results, _ := idx.Do(cssi.SearchRequest{Query: &q, K: 3, Window: &cssi.Window{LoX: 0, LoY: 0, HiX: 1, HiY: 1}}) // whole space
	inWindow := true
	for _, r := range results {
		o, _ := idx.Object(r.ID)
		if o.X < 0 || o.X > 1 || o.Y < 0 || o.Y > 1 {
			inWindow = false
		}
	}
	fmt.Println("results:", len(results))
	fmt.Println("all in window:", inWindow)
	// Output:
	// results: 3
	// all in window: true
}
