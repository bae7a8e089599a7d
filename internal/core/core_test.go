package core

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/knn"
	"repro/internal/metric"
	"repro/internal/scan"
)

// fixture bundles a dataset, its metric space, a built index and a
// scanner for differential testing.
type fixture struct {
	ds  *dataset.Dataset
	sp  *metric.Space
	idx *Index
	sc  *scan.Scanner
}

func build(t testing.TB, kind dataset.Kind, size int, cfg Config) *fixture {
	t.Helper()
	ds, err := dataset.Generate(dataset.GenConfig{Kind: kind, Size: size, Dim: 32, Seed: 51})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := metric.NewSpace(ds)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := Build(ds, sp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{ds: ds, sp: sp, idx: idx, sc: scan.New(ds, sp)}
}

func sameResults(t *testing.T, ctx string, want, got []knn.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d results, want %d", ctx, len(got), len(want))
	}
	for i := range want {
		// Compare distances (ties make IDs ambiguous between equally
		// correct answers).
		if got[i].Dist != want[i].Dist {
			t.Fatalf("%s: result %d dist %v, want %v", ctx, i, got[i].Dist, want[i].Dist)
		}
	}
}

// identicalResults is sameResults strengthened to IDs: the kept set is a
// pure function of the offered candidates and every exclusion of the
// gated scan provably cannot be a result, so even tie-broken IDs must
// agree, not just distances.
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

func TestBuildRejectsEmpty(t *testing.T) {
	sp := &metric.Space{DsMax: 1, DtMax: 1}
	if _, err := Build(&dataset.Dataset{}, sp, Config{}); err == nil {
		t.Fatal("expected error for empty dataset")
	}
}

func TestBuildRejectsDuplicateIDs(t *testing.T) {
	ds, _ := dataset.Generate(dataset.GenConfig{Kind: dataset.TwitterLike, Size: 10, Dim: 8, Seed: 1})
	ds.Objects[3].ID = ds.Objects[7].ID
	sp, _ := metric.NewSpace(ds)
	if _, err := Build(ds, sp, Config{}); err == nil {
		t.Fatal("expected error for duplicate IDs")
	}
}

func TestBuildInvariants(t *testing.T) {
	for _, kind := range []dataset.Kind{dataset.TwitterLike, dataset.YelpLike} {
		f := build(t, kind, 800, Config{Seed: 3})
		if err := f.idx.CheckInvariants(); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if f.idx.NumClusters() == 0 {
			t.Fatalf("%v: no hybrid clusters", kind)
		}
		if f.idx.Len() != 800 {
			t.Fatalf("%v: Len = %d", kind, f.idx.Len())
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	f := build(t, dataset.TwitterLike, 500, Config{})
	cfg := f.idx.Config()
	if cfg.M != 2 || cfg.F != 0.3 || cfg.Ks < 4 || cfg.Kt < 4 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
}

// The central correctness claim (Lemma 4.7): CSSI returns exactly the
// linear-scan result for any λ and k.
func TestCSSIExactness(t *testing.T) {
	for _, kind := range []dataset.Kind{dataset.TwitterLike, dataset.YelpLike} {
		f := build(t, kind, 1200, Config{Seed: 5})
		for _, lambda := range []float64{0, 0.1, 0.3, 0.5, 0.7, 0.9, 1} {
			for _, k := range []int{1, 5, 50} {
				for qi := 0; qi < 5; qi++ {
					q := f.ds.Objects[(qi*211+7)%f.ds.Len()]
					want := f.sc.Search(&q, k, lambda, nil)
					got := f.idx.Search(&q, k, lambda, nil)
					sameResults(t, kindLambdaK(kind, lambda, k), want, got)
				}
			}
		}
	}
}

func kindLambdaK(kind dataset.Kind, lambda float64, k int) string {
	return kind.String() + "/λ=" + fmtF(lambda) + "/k=" + itoa(k)
}

func fmtF(f float64) string { return string(rune('0'+int(f*10))) + "‰" }
func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

// CSSIA must return the exact result for λ=1 (pure spatial k-NN: the
// projected semantic bounds are unused; §7.2 reports zero error there).
func TestCSSIAExactForSpatialOnly(t *testing.T) {
	f := build(t, dataset.TwitterLike, 1000, Config{Seed: 6})
	for qi := 0; qi < 10; qi++ {
		q := f.ds.Objects[(qi*97+3)%f.ds.Len()]
		want := f.sc.Search(&q, 10, 1, nil)
		got := f.idx.SearchApprox(&q, 10, 1, nil)
		sameResults(t, "λ=1", want, got)
	}
}

// CSSIA error stays small at the defaults (paper: <1% typically, ≤4% for
// small k).
func TestCSSIAErrorSmall(t *testing.T) {
	f := build(t, dataset.TwitterLike, 2000, Config{Seed: 7})
	var total float64
	const queries = 40
	for qi := 0; qi < queries; qi++ {
		q := f.ds.Objects[(qi*131+17)%f.ds.Len()]
		exact := f.sc.Search(&q, 50, 0.5, nil)
		approx := f.idx.SearchApprox(&q, 50, 0.5, nil)
		total += knn.ErrorRate(exact, approx)
	}
	if avg := total / queries; avg > 0.05 {
		t.Fatalf("average CSSIA error %.4f > 5%%", avg)
	}
}

// The pruning accounting identity of Fig. 12: visited + inter-pruned +
// intra-pruned = |O| for both algorithms.
func TestPruningAccountingIdentity(t *testing.T) {
	f := build(t, dataset.TwitterLike, 1500, Config{Seed: 8})
	q := f.ds.Objects[33]
	for _, approx := range []bool{false, true} {
		var st metric.Stats
		if approx {
			f.idx.SearchApprox(&q, 10, 0.5, &st)
		} else {
			f.idx.Search(&q, 10, 0.5, &st)
		}
		sum := st.VisitedObjects + st.InterPruned + st.IntraPruned
		if sum != int64(f.ds.Len()) {
			t.Fatalf("approx=%v: visited %d + inter %d + intra %d = %d, want %d",
				approx, st.VisitedObjects, st.InterPruned, st.IntraPruned, sum, f.ds.Len())
		}
	}
}

// CSSI must actually prune: on clustered data with a full heap it should
// not visit everything.
func TestCSSIPrunes(t *testing.T) {
	f := build(t, dataset.YelpLike, 4000, Config{Seed: 9})
	var st metric.Stats
	f.idx.Search(&f.ds.Objects[5], 10, 0.5, &st)
	if st.VisitedObjects >= int64(f.ds.Len()) {
		t.Fatalf("CSSI visited all %d objects", st.VisitedObjects)
	}
	if st.InterPruned+st.IntraPruned == 0 {
		t.Fatal("no pruning recorded")
	}
}

// CSSIA prunes at least as aggressively as CSSI on average (the point of
// §5: projected representations overlap less).
func TestCSSIAVisitsFewerOnAverage(t *testing.T) {
	f := build(t, dataset.TwitterLike, 3000, Config{Seed: 10})
	var visCSSI, visCSSIA int64
	for qi := 0; qi < 15; qi++ {
		q := f.ds.Objects[(qi*173+29)%f.ds.Len()]
		var a, b metric.Stats
		f.idx.Search(&q, 10, 0.5, &a)
		f.idx.SearchApprox(&q, 10, 0.5, &b)
		visCSSI += a.VisitedObjects
		visCSSIA += b.VisitedObjects
	}
	if visCSSIA > visCSSI {
		t.Fatalf("CSSIA visited more than CSSI: %d vs %d", visCSSIA, visCSSI)
	}
}

func TestSearchSmallDataset(t *testing.T) {
	f := build(t, dataset.TwitterLike, 5, Config{Seed: 11})
	got := f.idx.Search(&f.ds.Objects[0], 10, 0.5, nil)
	if len(got) != 5 {
		t.Fatalf("got %d results, want 5", len(got))
	}
	got = f.idx.SearchApprox(&f.ds.Objects[0], 10, 0.5, nil)
	if len(got) != 5 {
		t.Fatalf("approx got %d results, want 5", len(got))
	}
}

func TestQueryNotInDataset(t *testing.T) {
	f := build(t, dataset.TwitterLike, 600, Config{Seed: 12})
	// Synthesize a fresh query via the dataset's embedding model.
	qv, ok := f.ds.Model.EncodeDocument(f.ds.Objects[0].Text + " " + f.ds.Objects[1].Text)
	if !ok {
		t.Fatal("could not encode query text")
	}
	q := dataset.Object{ID: 999999, X: 0.42, Y: 0.58, Vec: qv}
	want := f.sc.Search(&q, 10, 0.5, nil)
	got := f.idx.Search(&q, 10, 0.5, nil)
	sameResults(t, "external query", want, got)
}

func TestObjectLookup(t *testing.T) {
	f := build(t, dataset.TwitterLike, 50, Config{Seed: 13})
	o, ok := f.idx.Object(f.ds.Objects[7].ID)
	if !ok || o.ID != f.ds.Objects[7].ID {
		t.Fatal("Object lookup failed")
	}
	if _, ok := f.idx.Object(123456); ok {
		t.Fatal("lookup of unknown ID succeeded")
	}
}

func TestExplicitClusterCounts(t *testing.T) {
	f := build(t, dataset.TwitterLike, 500, Config{Ks: 3, Kt: 5, Seed: 14})
	cfg := f.idx.Config()
	if cfg.Ks != 3 || cfg.Kt != 5 {
		t.Fatalf("explicit counts not honored: %+v", cfg)
	}
	if f.idx.NumClusters() > 15 {
		t.Fatalf("more hybrid clusters (%d) than Ks·Kt=15", f.idx.NumClusters())
	}
	if err := f.idx.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Still exact.
	q := f.ds.Objects[3]
	sameResults(t, "小K", f.sc.Search(&q, 10, 0.5, nil), f.idx.Search(&q, 10, 0.5, nil))
}

func TestVaryingMStillExact(t *testing.T) {
	for _, m := range []int{1, 3, 8} {
		f := build(t, dataset.TwitterLike, 700, Config{M: m, Seed: 15})
		q := f.ds.Objects[11]
		sameResults(t, "m", f.sc.Search(&q, 10, 0.5, nil), f.idx.Search(&q, 10, 0.5, nil))
		if err := f.idx.CheckInvariants(); err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
	}
}

// The paper's bounds hold for arbitrary metric spaces (§4.2): CSSI must
// stay exact when the semantic metric is angular instead of Euclidean,
// across every baseline-free configuration.
func TestCSSIExactWithAngularMetric(t *testing.T) {
	ds, err := dataset.Generate(dataset.GenConfig{Kind: dataset.TwitterLike, Size: 900, Dim: 32, Seed: 53})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := metric.NewSpaceWithSemantic(ds, metric.AngularSemantic)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := Build(ds, sp, Config{Seed: 54})
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	sc := scan.New(ds, sp)
	for _, lambda := range []float64{0, 0.3, 0.7, 1} {
		for qi := 0; qi < 5; qi++ {
			q := ds.Objects[(qi*191+23)%ds.Len()]
			want := sc.Search(&q, 10, lambda, nil)
			got := idx.Search(&q, 10, lambda, nil)
			sameResults(t, "angular", want, got)
		}
	}
	// CSSIA remains usable (approximate) under the angular metric.
	q := ds.Objects[77]
	exact := idx.Search(&q, 20, 0.5, nil)
	approx := idx.SearchApprox(&q, 20, 0.5, nil)
	if e := knn.ErrorRate(exact, approx); e > 0.3 {
		t.Fatalf("angular CSSIA error %v suspiciously high", e)
	}
}

// TestCountedReadPrunedCounters pins the inter-cluster counters of a
// counted exact read on a fixed corpus: ClustersPruned and InterPruned
// summed over k-NN and window reads. pop charges a cluster's rows only
// when the read counts, so this is what holds that branch to the full
// charge. Each read also keeps the identities the counters are charged
// by: every cluster is ordered or pruned, and every row visited or
// pruned — also once an overlay tombstones base rows and buffers
// inserts (TestCompactFold holds reads over several parts to it).
func TestCountedReadPrunedCounters(t *testing.T) {
	f := build(t, dataset.TwitterLike, 3000, Config{Seed: 7})
	var clusters, rows int64
	for _, q := range f.ds.SampleQueries(12, 29) {
		w := Window{LoX: q.X - 0.1, LoY: q.Y - 0.1, HiX: q.X + 0.1, HiY: q.Y + 0.1}
		for _, lambda := range []float64{0.1, 0.5, 0.9} {
			for _, k := range []int{1, 10} {
				for _, opts := range []SearchOptions{{}, {Window: &w}} {
					var st metric.Stats
					f.idx.SearchOptionsInto(nil, &q, k, lambda, opts, &st)
					if st.ClustersOrdered+st.ClustersPruned != int64(len(f.idx.clusters)) ||
						st.VisitedObjects+st.InterPruned+st.IntraPruned != int64(f.ds.Len()) {
						t.Fatalf("λ=%v k=%d window=%v: %+v charges %d clusters and %d rows, want %d and %d", lambda, k, opts.Window != nil, st,
							st.ClustersOrdered+st.ClustersPruned, st.VisitedObjects+st.InterPruned+st.IntraPruned, len(f.idx.clusters), f.ds.Len())
					}
					clusters += st.ClustersPruned
					rows += st.InterPruned
				}
			}
		}
	}
	if clusters != wantClustersPruned || rows != wantInterPruned {
		t.Fatalf("ClustersPruned %d, InterPruned %d; want %d and %d", clusters, rows, wantClustersPruned, wantInterPruned)
	}

	over := cloneHeader(f.idx)
	for i := 0; i < f.ds.Len(); i += 4 {
		if err := over.Delete(f.ds.Objects[i].ID); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < 400; i += 4 {
		o := f.ds.Objects[i]
		o.ID += 1 << 20
		if err := over.Insert(o); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range f.ds.SampleQueries(6, 31) {
		for _, lambda := range []float64{0.1, 0.5, 0.9} {
			requirePruningIdentity(t, "overlay", []*Index{over}, &q, 10, lambda)
		}
	}
}

const wantClustersPruned, wantInterPruned = 15132, 304726
