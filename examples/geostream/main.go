// geostream demonstrates the dynamic-data story of the paper (§6.2): an
// index built once keeps answering queries while objects stream in, get
// deleted, and get updated — insertions join the nearest clusters and
// expand radii, deletions shrink them, and only the affected hybrid
// cluster's array is rebuilt. After heavy churn the application decides
// to Rebuild.
package main

import (
	"fmt"
	"log"
	"math/rand/v2"
	"time"

	"repro"
)

func main() {
	// Start with an initial corpus...
	initial, err := cssi.GenerateDataset(cssi.DatasetConfig{
		Kind: cssi.TwitterLike, Size: 8000, Seed: 11,
	})
	if err != nil {
		log.Fatal(err)
	}
	idx, err := cssi.Build(initial, cssi.Options{Seed: 11})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("built index over %d objects (%d hybrid clusters)\n",
		idx.Len(), idx.NumClusters())

	// ...and a stream of future objects (same generator, different seed,
	// shifted IDs so they do not collide).
	stream, err := cssi.GenerateDataset(cssi.DatasetConfig{
		Kind: cssi.TwitterLike, Size: 4000, Seed: 12,
	})
	if err != nil {
		log.Fatal(err)
	}
	for i := range stream.Objects {
		stream.Objects[i].ID += 1_000_000
	}

	rng := rand.New(rand.NewPCG(3, 3))
	q := initial.Objects[100]
	next := 0
	for epoch := 1; epoch <= 4; epoch++ {
		// Each epoch: 500 inserts, 200 deletes, 300 location updates.
		for i := 0; i < 500 && next < len(stream.Objects); i++ {
			if err := idx.Insert(stream.Objects[next]); err != nil {
				log.Fatal(err)
			}
			next++
		}
		deleted := 0
		for deleted < 200 {
			id := uint32(rng.IntN(8000))
			if err := idx.Delete(id); err == nil {
				deleted++
			}
		}
		updated := 0
		for updated < 300 {
			id := uint32(rng.IntN(8000))
			o, ok := idx.Object(id)
			if !ok {
				continue
			}
			moved := o
			moved.X = clamp01(moved.X + rng.NormFloat64()*0.02)
			moved.Y = clamp01(moved.Y + rng.NormFloat64()*0.02)
			if err := idx.Update(moved); err != nil {
				log.Fatal(err)
			}
			updated++
		}

		var st cssi.Stats
		start := time.Now()
		res, err := idx.Do(cssi.SearchRequest{Query: &q, K: 10, Lambda: 0.5, Stats: &st})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("epoch %d: %5d live objects, %4d updates since build, query %v, visited %d, top hit id=%d d=%.4f\n",
			epoch, idx.Len(), idx.UpdatesSinceBuild(), time.Since(start).Round(time.Microsecond),
			st.VisitedObjects, res[0].ID, res[0].Dist)
	}

	// Heavy churn accumulated — rebuild restores fresh clustering.
	start := time.Now()
	if err := idx.Rebuild(); err != nil {
		log.Fatal(err)
	}
	var st cssi.Stats
	if _, err := idx.Do(cssi.SearchRequest{Query: &q, K: 10, Lambda: 0.5, Stats: &st}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after rebuild (%v): %d clusters, query visited %d objects\n",
		time.Since(start).Round(time.Millisecond), idx.NumClusters(), st.VisitedObjects)
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
