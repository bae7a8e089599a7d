package cssi

import "testing"

// exactSame asserts two exact result lists are bit-identical, IDs
// included (the quantized filter's contract).
func exactSame(t *testing.T, ctx string, want, got []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d results, want %d", ctx, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: result %d = %+v, want %+v", ctx, i, got[i], want[i])
		}
	}
}

// QuantOnly with Approx answers well-formed results on every flavor,
// and the rerank knob is accepted.
func TestDoQuantOnlyApprox(t *testing.T) {
	ds := testDataset(t, 800)
	for _, api := range requestFixtures(t, ds, true) {
		for qi := 0; qi < 4; qi++ {
			q := ds.Objects[(qi*211+31)%ds.Len()]
			res, err := api.do(SearchRequest{Query: &q, K: 10, Lambda: 0.5, Approx: true, Quant: QuantOnly, QuantRerank: 6})
			if err != nil {
				t.Fatal(err)
			}
			if len(res) != 10 {
				t.Fatalf("%s: QuantOnly returned %d results, want 10", api.name, len(res))
			}
			for i := 1; i < len(res); i++ {
				if res[i].Dist < res[i-1].Dist {
					t.Fatalf("%s: QuantOnly results not sorted", api.name)
				}
			}
			// Approximate, but it must stay close to exact: measure the
			// paper's error-rate metric against the exact answer.
			exact, err := api.do(SearchRequest{Query: &q, K: 10, Lambda: 0.5})
			if err != nil {
				t.Fatal(err)
			}
			if er := ErrorRate(exact, res); er > 0.4 {
				t.Fatalf("%s: QuantOnly error rate %.2f implausibly high", api.name, er)
			}
		}
	}
}

// The batched QuantOnly path agrees with the single-query path.
func TestDoBatchQuantOnly(t *testing.T) {
	ds := testDataset(t, 600)
	for _, api := range requestFixtures(t, ds, true) {
		queries := ds.Objects[:12]
		batch, err := api.doBatch(BatchSearchRequest{Queries: queries, K: 8, Lambda: 0.5, Approx: true, Quant: QuantOnly})
		if err != nil {
			t.Fatal(err)
		}
		for i := range queries {
			single, err := api.do(SearchRequest{Query: &queries[i], K: 8, Lambda: 0.5, Approx: true, Quant: QuantOnly})
			if err != nil {
				t.Fatal(err)
			}
			exactSame(t, api.name+" batch QuantOnly", single, batch[i])
		}
	}
}

// DisableQuant builds an index without the SQ8 arena whose answers are
// bit-identical to the quantized build's.
func TestOptionsDisableQuant(t *testing.T) {
	ds := testDataset(t, 500)
	on, err := Build(ds, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	off, err := Build(ds, Options{Seed: 9, DisableQuant: true})
	if err != nil {
		t.Fatal(err)
	}
	for qi := 0; qi < 5; qi++ {
		q := ds.Objects[(qi*97+13)%ds.Len()]
		a := on.Search(&q, 10, 0.5)
		b := off.Search(&q, 10, 0.5)
		exactSame(t, "DisableQuant", a, b)
	}
	// A DisableQuant index silently ignores QuantOnly's arena use and
	// still answers (falls back to plain CSSIA).
	q := ds.Objects[3]
	res, err := off.Do(SearchRequest{Query: &q, K: 10, Lambda: 0.5, Approx: true, Quant: QuantOnly})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 10 {
		t.Fatalf("QuantOnly on DisableQuant index returned %d results", len(res))
	}
}

// The sharded explain trace names the quantized algorithm and carries
// the quant phase counters.
func TestShardedExplainQuant(t *testing.T) {
	ds := testDataset(t, 900)
	s := mustBuildSharded(t, ds, 3, Options{Seed: 5})
	q := ds.Objects[11]

	var tr SearchTrace
	res, err := s.Do(SearchRequest{Query: &q, K: 10, Lambda: 0.5, Approx: true, Quant: QuantOnly, Trace: &tr})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 10 {
		t.Fatalf("got %d results", len(res))
	}
	if tr.Algo != "cssia-sq8" {
		t.Fatalf("trace algo = %q, want cssia-sq8", tr.Algo)
	}
	if tr.Total.QuantReranked == 0 {
		t.Fatal("QuantOnly trace shows no rerank work")
	}
	if tr.Total.QuantNanos == 0 {
		t.Fatal("QuantOnly trace has no quant phase time")
	}

	// Exact explain stays bit-identical with the filter active and
	// reports the filter's counters.
	var es ExplainStats
	got, err := s.Do(SearchRequest{Query: &q, K: 10, Lambda: 0.5, Explain: &es})
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.Do(SearchRequest{Query: &q, K: 10, Lambda: 0.5, Quant: QuantOff})
	if err != nil {
		t.Fatal(err)
	}
	exactSame(t, "sharded explained quant", want, got)
	if es.QuantPruned+es.QuantReranked == 0 {
		t.Fatal("sharded exact explain shows no quant filter activity")
	}
}
