package core

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/knn"
	"repro/internal/metric"
	"repro/internal/obs"
)

// identicalResults is sameResults strengthened to IDs: the quantized
// filter claims BIT-identical behavior (the kept set is a pure function
// of the offered candidates and every exclusion provably cannot be a
// result), so even tie-broken IDs must agree, not just distances.
func identicalResults(t *testing.T, ctx string, want, got []knn.Result) {
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

// The tentpole exactness property: the SQ8 filter+rerank scan answers
// every query bit-identically to the pure float32 path, across
// datasets, λ (including the spatial-only and semantic-only edges), k,
// and both member and perturbed non-member queries.
func TestQuantFilterBitIdentical(t *testing.T) {
	for _, kind := range []dataset.Kind{dataset.TwitterLike, dataset.YelpLike} {
		f := build(t, kind, 900, Config{Seed: 90})
		if f.idx.quant == nil {
			t.Fatal("fixture index has no quant arena")
		}
		for qi := 0; qi < 12; qi++ {
			q := f.ds.Objects[(qi*67+11)%f.ds.Len()]
			if qi%2 == 1 {
				// Perturbed non-member query: off-grid location and a
				// vector between two stored ones.
				other := f.ds.Objects[(qi*131+29)%f.ds.Len()]
				q.X = (q.X + other.X) / 2
				q.Y = (q.Y + other.Y) / 2
				vec := append([]float32(nil), q.Vec...)
				for i := range vec {
					vec[i] = (vec[i] + other.Vec[i]) / 2
				}
				q.Vec = vec
			}
			for _, lambda := range []float64{0, 0.1, 0.5, 0.9, 1} {
				for _, k := range []int{1, 10, 40, f.ds.Len() + 1} {
					want := f.idx.SearchOptionsInto(nil, &q, k, lambda, SearchOptions{Quant: QuantOff}, nil)
					got := f.idx.SearchOptionsInto(nil, &q, k, lambda, SearchOptions{}, nil)
					identicalResults(t, "quant filter", want, got)
					// Both gate their rows; the ablated search does not.
					identicalResults(t, "quant filter vs gate-off", f.idx.SearchAblated(&q, k, lambda, AblationOptions{}, nil), got)
				}
			}
		}
	}
}

// Bit-identity must survive maintenance churn: inserts extend the quant
// arena with the build-time codebook (clamping absorbed into stored
// residuals), deletes rebuild cluster code blocks.
func TestQuantBitIdenticalUnderMaintenance(t *testing.T) {
	f := build(t, dataset.TwitterLike, 600, Config{Seed: 91})
	// Delete a swath, insert objects both in- and out-of-range of the
	// build-time codebook.
	for i := 0; i < 80; i++ {
		if err := f.idx.Delete(f.ds.Objects[i*3].ID); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 60; i++ {
		nova := f.ds.Objects[i*5+1]
		nova.ID = uint32(100000 + i)
		nova.X *= 1.1
		vec := append([]float32(nil), nova.Vec...)
		if i%3 == 0 {
			// Push some dimensions outside the trained [lo, hi] range so
			// the clamped-encoding path is exercised.
			for j := range vec {
				vec[j] = vec[j]*3 + 2
			}
		}
		nova.Vec = vec
		if err := f.idx.Insert(nova); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.idx.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for qi := 0; qi < 8; qi++ {
		q := f.ds.Objects[(qi*101+7)%f.ds.Len()]
		for _, lambda := range []float64{0.3, 0.6} {
			want := f.idx.SearchOptionsInto(nil, &q, 10, lambda, SearchOptions{Quant: QuantOff}, nil)
			got := f.idx.SearchOptionsInto(nil, &q, 10, lambda, SearchOptions{}, nil)
			identicalResults(t, "quant after churn", want, got)
		}
	}
}

// COW clones share the quant arena safely: queries against the parent
// snapshot answer identically, and its scan blocks (windows of the
// shared arenas) hold the same bytes, before and after a clone inserts
// into those clusters and outgrows the arenas.
func TestQuantBitIdenticalAcrossClone(t *testing.T) {
	f := build(t, dataset.TwitterLike, 400, Config{Seed: 92})
	q := f.ds.Objects[13]
	before := f.idx.SearchOptionsInto(nil, &q, 10, 0.5, SearchOptions{}, nil)
	blocks := blockCopy(f.idx)

	clone := f.idx.CloneForWrite()
	for i := 0; i < 40; i++ {
		nova := f.ds.Objects[i*7+2]
		nova.ID = uint32(200000 + i)
		if err := clone.Insert(nova); err != nil {
			t.Fatal(err)
		}
	}
	if err := clone.Delete(f.ds.Objects[3].ID); err != nil {
		t.Fatal(err)
	}

	after := f.idx.SearchOptionsInto(nil, &q, 10, 0.5, SearchOptions{}, nil)
	identicalResults(t, "parent after clone mutation", before, after)
	if !sameBlocks(blocks, blockCopy(f.idx)) {
		t.Fatal("parent scan blocks changed after clone mutation")
	}
	if &clone.quant.codes[0] == &f.idx.quant.codes[0] {
		t.Fatal("clone did not outgrow the code arena")
	}
	// And the clone itself stays exact.
	want := clone.SearchOptionsInto(nil, &q, 10, 0.5, SearchOptions{Quant: QuantOff}, nil)
	got := clone.SearchOptionsInto(nil, &q, 10, 0.5, SearchOptions{}, nil)
	identicalResults(t, "clone quant filter", want, got)
}

// A seeded query (the sharded gather chain) preserves
// bit-identity too.
func TestQuantSeededBitIdentical(t *testing.T) {
	f := build(t, dataset.TwitterLike, 500, Config{Seed: 93})
	q := f.ds.Objects[21]
	seed := f.idx.Search(&q, 5, 0.4, nil)
	want := f.idx.SearchOptionsInto(nil, &q, 10, 0.4, SearchOptions{Quant: QuantOff, Seed: seed}, nil)
	got := f.idx.SearchOptionsInto(nil, &q, 10, 0.4, SearchOptions{Seed: seed}, nil)
	identicalResults(t, "seeded quant", want, got)
}

// SearchBatch agrees with per-query SearchOptionsInto in every
// quant mode.
func TestQuantBatchMatchesSingle(t *testing.T) {
	f := build(t, dataset.TwitterLike, 500, Config{Seed: 94})
	queries := make([]dataset.Object, 30)
	for i := range queries {
		queries[i] = f.ds.Objects[(i*37+5)%f.ds.Len()]
	}
	for _, opts := range []SearchOptions{
		{},
		{Quant: QuantOff},
		{Approx: true, Quant: QuantOnly},
	} {
		batch, err := f.idx.SearchBatch(queries, 10, 0.5, 4, opts, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range queries {
			single := f.idx.SearchOptionsInto(nil, &queries[i], 10, 0.5, opts, nil)
			identicalResults(t, "batch vs single", single, batch[i])
		}
	}
}

// QuantOnly is approximate but must stay well-formed (sorted, k
// results, live IDs) and hold recall@10 ≥ 0.99 against the exact answer
// at the default rerank multiplier — the gate the retired quant
// experiment's CI smoke carried, at its size (1,000 objects, dim 32,
// 40 queries).
func TestQuantOnlyRecall(t *testing.T) {
	f := build(t, dataset.TwitterLike, 1000, Config{Seed: 95})
	const k = 10
	hits, total := 0, 0
	for qi := 0; qi < 40; qi++ {
		q := f.ds.Objects[(qi*53+9)%f.ds.Len()]
		exact := f.idx.Search(&q, k, 0.5, nil)
		approx := f.idx.SearchOptionsInto(nil, &q, k, 0.5, SearchOptions{Approx: true, Quant: QuantOnly}, nil)
		if len(approx) != k {
			t.Fatalf("query %d: got %d results, want %d", qi, len(approx), k)
		}
		for i := 1; i < len(approx); i++ {
			if approx[i].Dist < approx[i-1].Dist {
				t.Fatalf("query %d: results not sorted", qi)
			}
		}
		in := make(map[uint32]bool, k)
		for _, r := range exact {
			in[r.ID] = true
		}
		for _, r := range approx {
			if in[r.ID] {
				hits++
			}
		}
		total += k
	}
	if recall := float64(hits) / float64(total); recall < 0.99 {
		t.Fatalf("QuantOnly recall@%d = %.4f, want >= 0.99", k, recall)
	}
}

// Raising the rerank multiplier must not lower recall below the
// default's, and a huge multiplier converges to near-exact.
func TestQuantOnlyRerankConverges(t *testing.T) {
	f := build(t, dataset.TwitterLike, 800, Config{Seed: 96})
	const k = 10
	recallAt := func(rerank int) float64 {
		hits, total := 0, 0
		for qi := 0; qi < 15; qi++ {
			q := f.ds.Objects[(qi*41+3)%f.ds.Len()]
			exact := f.idx.Search(&q, k, 0.5, nil)
			approx := f.idx.SearchOptionsInto(nil, &q, k, 0.5,
				SearchOptions{Approx: true, Quant: QuantOnly, QuantRerank: rerank}, nil)
			in := make(map[uint32]bool, k)
			for _, r := range exact {
				in[r.ID] = true
			}
			for _, r := range approx {
				if in[r.ID] {
					hits++
				}
			}
			total += k
		}
		return float64(hits) / float64(total)
	}
	if r := recallAt(40); r < 0.99 {
		t.Fatalf("recall at rerank=40 is %.3f, want >= 0.99", r)
	}
}

// The quant observability contract: QuantAuto populates the new
// counters, QuantOff leaves them zero, and the traced results stay
// bit-identical to the untraced call.
func TestQuantExplainCounters(t *testing.T) {
	f := build(t, dataset.TwitterLike, 800, Config{Seed: 97})
	q := f.ds.Objects[31]

	var es obs.SearchStats
	got := f.idx.SearchExplainOptionsInto(nil, &q, 10, 0.5, SearchOptions{}, &es)
	want := f.idx.SearchOptionsInto(nil, &q, 10, 0.5, SearchOptions{}, nil)
	identicalResults(t, "explained quant", want, got)
	if es.QuantPruned+es.QuantReranked == 0 {
		t.Fatal("QuantAuto trace shows no quantized filter activity")
	}
	if es.QuantNanos <= 0 {
		t.Fatal("QuantAuto trace has no quant phase time")
	}
	if es.QuantNanos > es.ScanNanos {
		t.Fatalf("QuantNanos %d exceeds ScanNanos %d (must be a subset)", es.QuantNanos, es.ScanNanos)
	}

	var off obs.SearchStats
	f.idx.SearchExplainOptionsInto(nil, &q, 10, 0.5, SearchOptions{Quant: QuantOff}, &off)
	if off.QuantPruned != 0 || off.QuantReranked != 0 || off.QuantNanos != 0 {
		t.Fatalf("QuantOff trace carries quant counters: %+v", off.Stats)
	}

	var only obs.SearchStats
	f.idx.SearchExplainOptionsInto(nil, &q, 10, 0.5, SearchOptions{Approx: true, Quant: QuantOnly}, &only)
	if only.QuantReranked == 0 {
		t.Fatal("QuantOnly trace shows no rerank activity")
	}
}

// Quantization is disabled for the angular semantic metric (the bound
// pair is Euclidean); searches still answer, off the float32 path.
func TestQuantDisabledForAngular(t *testing.T) {
	ds, err := dataset.Generate(dataset.GenConfig{Kind: dataset.TwitterLike, Size: 300, Dim: 32, Seed: 51})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := metric.NewSpaceWithSemantic(ds, metric.AngularSemantic)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := Build(ds, sp, Config{Seed: 98})
	if err != nil {
		t.Fatal(err)
	}
	if idx.quant != nil {
		t.Fatal("angular index built a quant arena")
	}
	q := ds.Objects[5]
	want := idx.SearchOptionsInto(nil, &q, 10, 0.5, SearchOptions{Quant: QuantOff}, nil)
	got := idx.SearchOptionsInto(nil, &q, 10, 0.5, SearchOptions{}, nil)
	identicalResults(t, "angular fallback", want, got)
}

// DisableQuant yields a quant-free index whose results match a
// quantized index bit for bit (the config only removes the filter).
func TestDisableQuantConfig(t *testing.T) {
	on := build(t, dataset.TwitterLike, 400, Config{Seed: 99})
	off := build(t, dataset.TwitterLike, 400, Config{Seed: 99, DisableQuant: true})
	if off.idx.quant != nil {
		t.Fatal("DisableQuant index built a quant arena")
	}
	for qi := 0; qi < 5; qi++ {
		q := on.ds.Objects[(qi*89+17)%on.ds.Len()]
		identicalResults(t, "config off",
			off.idx.Search(&q, 10, 0.5, nil),
			on.idx.Search(&q, 10, 0.5, nil))
	}
}
