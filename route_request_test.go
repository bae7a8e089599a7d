package cssi

import (
	"math/rand/v2"
	"testing"
)

// TestRoutedApproxAcrossFlavors smoke-tests the routed approximate mode
// on every flavor: a full result set comes back, with high recall
// against the exact answer at the default target.
func TestRoutedApproxAcrossFlavors(t *testing.T) {
	ds := testDataset(t, 2500)
	apis := requestFixtures(t, ds, true)
	rng := rand.New(rand.NewPCG(43, 1))
	for _, api := range apis {
		sum := 0.0
		const trials = 12
		for trial := 0; trial < trials; trial++ {
			q := ds.Objects[rng.IntN(ds.Len())]
			exact, err := api.do(SearchRequest{Query: &q, K: 10, Lambda: 0.5})
			if err != nil {
				t.Fatal(err)
			}
			approx, err := api.do(SearchRequest{Query: &q, K: 10, Lambda: 0.5, Approx: true, Route: true})
			if err != nil {
				t.Fatalf("%s: routed approx: %v", api.name, err)
			}
			if len(approx) != len(exact) {
				t.Fatalf("%s: routed approx returned %d results, want %d", api.name, len(approx), len(exact))
			}
			sum += 1 - ErrorRate(exact, approx)
		}
		if recall := sum / trials; recall < 0.85 {
			t.Fatalf("%s: mean routed-approx recall@10 = %.3f, want >= 0.85", api.name, recall)
		}
	}
}

// TestRoutedExplainAlgoNames pins the trace's algorithm labels for the
// routed modes.
func TestRoutedExplainAlgoNames(t *testing.T) {
	ds := testDataset(t, 1500)
	s := mustBuildSharded(t, ds, 2, Options{Seed: 5})
	q := ds.Objects[0]
	cases := []struct {
		req  SearchRequest
		algo string
	}{
		{SearchRequest{Query: &q, K: 5, Lambda: 0.5}, "cssi"},
		{SearchRequest{Query: &q, K: 5, Lambda: 0.5, Route: true}, "cssi"}, // no effect on exact
		{SearchRequest{Query: &q, K: 5, Lambda: 0.5, Approx: true}, "cssia"},
		{SearchRequest{Query: &q, K: 5, Lambda: 0.5, Approx: true, Route: true}, "cssia-routed"},
	}
	for _, c := range cases {
		var tr SearchTrace
		c.req.Trace = &tr
		if _, err := s.Do(c.req); err != nil {
			t.Fatalf("%s: %v", c.algo, err)
		}
		if tr.Algo != c.algo {
			t.Fatalf("trace algo = %q, want %q", tr.Algo, c.algo)
		}
	}
}
