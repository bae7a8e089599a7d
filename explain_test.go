package cssi

import (
	"fmt"
	"sync"
	"testing"
)

// doer is any index flavor's single-query entry point.
type doer interface {
	Do(SearchRequest) ([]Result, error)
}

// explained answers one query with the Explain observer attached.
func explained(t *testing.T, idx doer, q *Object, k int, lambda float64, approx bool) ([]Result, ExplainStats) {
	t.Helper()
	var es ExplainStats
	res, err := idx.Do(SearchRequest{Query: q, K: k, Lambda: lambda, Approx: approx, Explain: &es})
	if err != nil {
		t.Fatal(err)
	}
	return res, es
}

// traced answers one exact query with the Trace observer attached. It
// reports failures with Error so stress goroutines may call it.
func traced(t *testing.T, idx doer, q *Object, k int, lambda float64, requestID string) ([]Result, *SearchTrace) {
	t.Helper()
	tr := new(SearchTrace)
	res, err := idx.Do(SearchRequest{Query: q, K: k, Lambda: lambda, Trace: tr, RequestID: requestID})
	if err != nil {
		t.Error(err)
	}
	return res, tr
}

// An explained request must return bit-identical results to the plain
// one on every layer of the stack — Explain only reads counters the
// algorithms already maintain, so any divergence is a bug in the
// instrumentation threading.
func TestSearchExplainMatchesSearch(t *testing.T) {
	ds := testDataset(t, 900)
	flat, err := Build(ds, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	queries := ds.SampleQueries(20, 99)

	for qi := range queries {
		q := &queries[qi]
		for _, approx := range []bool{false, true} {
			label := map[bool]string{false: "cssi", true: "cssia"}[approx]
			plain := flat.Search(q, 10, 0.5)
			if approx {
				plain = flat.SearchApprox(q, 10, 0.5)
			}
			got, es := explained(t, flat, q, 10, 0.5, approx)
			equalResults(t, fmt.Sprintf("flat %s q%d", label, qi), plain, got)
			if es.VisitedObjects <= 0 || es.ClustersTotal <= 0 {
				t.Fatalf("%s q%d: empty explain stats %+v", label, qi, es)
			}
			if es.ObjectsConsidered() > int64(ds.Len()) {
				t.Fatalf("%s q%d: considered %d objects of %d", label, qi, es.ObjectsConsidered(), ds.Len())
			}
			if re := es.ReadEfficiency(); re < 0 || re > 1 {
				t.Fatalf("%s q%d: read efficiency %v", label, qi, re)
			}
			if len(got) > 0 && es.KthDistance != got[len(got)-1].Dist {
				t.Fatalf("%s q%d: kth distance %v, want %v", label, qi, es.KthDistance, got[len(got)-1].Dist)
			}
		}
	}
}

// A traced sharded request must agree with the flat exact search for
// any shard count, and its per-shard spans must be internally consistent:
// span object counts cover the corpus, span stats sum to the trace
// total, and the trace carries the merged global bound.
func TestShardedSearchExplainMatchesFlat(t *testing.T) {
	ds := testDataset(t, 900)
	flat, err := Build(ds, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	queries := ds.SampleQueries(12, 99)

	for _, p := range []int{1, 4} {
		sharded := mustBuildSharded(t, ds, p, Options{Seed: 5})
		for qi := range queries {
			q := &queries[qi]
			want := flat.Search(q, 10, 0.5)
			got, tr := traced(t, sharded, q, 10, 0.5, "req-test")
			equalResults(t, fmt.Sprintf("P=%d q%d", p, qi), want, got)

			if tr.RequestID != "req-test" || tr.Algo != "cssi" || tr.K != 10 || tr.Lambda != 0.5 {
				t.Fatalf("P=%d q%d: trace header %+v", p, qi, tr)
			}
			if len(tr.Shards) != p {
				t.Fatalf("P=%d q%d: %d spans", p, qi, len(tr.Shards))
			}
			objects, visited, inter, intra := 0, int64(0), int64(0), int64(0)
			for i, sp := range tr.Shards {
				if sp.Shard != i {
					t.Fatalf("P=%d q%d: span %d has shard %d", p, qi, i, sp.Shard)
				}
				if sp.DurationNanos < 0 {
					t.Fatalf("P=%d q%d: span %d duration %d", p, qi, i, sp.DurationNanos)
				}
				if re := sp.ReadEfficiency; re != sp.Stats.ReadEfficiency() {
					t.Fatalf("P=%d q%d: span %d derived ratio %v", p, qi, i, re)
				}
				objects += sp.Objects
				visited += sp.Stats.VisitedObjects
				inter += sp.Stats.InterPruned
				intra += sp.Stats.IntraPruned
			}
			if objects != ds.Len() {
				t.Fatalf("P=%d q%d: span objects sum %d, want %d", p, qi, objects, ds.Len())
			}
			if visited != tr.Total.VisitedObjects || inter != tr.Total.InterPruned || intra != tr.Total.IntraPruned {
				t.Fatalf("P=%d q%d: span sums (%d,%d,%d) != total (%d,%d,%d)", p, qi,
					visited, inter, intra, tr.Total.VisitedObjects, tr.Total.InterPruned, tr.Total.IntraPruned)
			}
			if len(got) > 0 && tr.Total.KthDistance != got[len(got)-1].Dist {
				t.Fatalf("P=%d q%d: kth %v, want %v", p, qi, tr.Total.KthDistance, got[len(got)-1].Dist)
			}
		}
	}
}

// A generated request ID must be attached when the caller passes "".
func TestShardedSearchExplainGeneratesRequestID(t *testing.T) {
	ds := testDataset(t, 300)
	sharded := mustBuildSharded(t, ds, 2, Options{Seed: 5})
	q := ds.Objects[3]
	_, tr := traced(t, sharded, &q, 5, 0.5, "")
	if tr.RequestID == "" {
		t.Fatal("empty generated request ID")
	}
}

// Snapshot publications must count the initial wrap and every
// mutation's publish, per shard.
func TestPublicationsCounter(t *testing.T) {
	ds := testDataset(t, 400)
	sharded := mustBuildSharded(t, ds, 2, Options{Seed: 5})
	for i, st := range sharded.ShardStats() {
		if st.Publications != 1 {
			t.Fatalf("shard %d: %d publications after build", i, st.Publications)
		}
	}
	o := ds.Objects[0]
	o.ID = 900001
	if err := sharded.Insert(o); err != nil {
		t.Fatal(err)
	}
	total := int64(0)
	for _, st := range sharded.ShardStats() {
		total += st.Publications
	}
	if total != 3 { // 2 initial + 1 publish on the owning shard
		t.Fatalf("publications sum %d, want 3", total)
	}
	// On one shard the count is the ResponseMeta.SnapshotID of an answer.
	one := ShardedFrom(mustBuild(t, ds, Options{Seed: 5}))
	for want := uint64(1); want <= 2; want++ {
		var meta ResponseMeta
		if _, err := one.Do(SearchRequest{Query: &o, K: 3, Lambda: 0.5, Meta: &meta}); err != nil {
			t.Fatal(err)
		}
		if pubs := one.ShardStats()[0].Publications; meta.SnapshotID != want || uint64(pubs) != want {
			t.Fatalf("one shard: SnapshotID %d, %d publications, want %d", meta.SnapshotID, pubs, want)
		}
		if err := one.Update(ds.Objects[1]); err != nil {
			t.Fatal(err)
		}
	}
}

// TestShardedExplainRaceStress hammers traced requests from many
// goroutines while writers mutate and a rebuild runs — stats
// collection enabled throughout. Run under -race in CI: the explain
// path shares the pooled scratch with plain searches, so a collection
// bug shows up here as a data race or a wrong result.
func TestShardedExplainRaceStress(t *testing.T) {
	ds := testDataset(t, 600)
	flat, err := Build(ds, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	sharded := mustBuildSharded(t, ds, 4, Options{Seed: 5})
	queries := ds.SampleQueries(8, 99)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				q := &queries[(g+i)%len(queries)]
				got, tr := traced(t, sharded, q, 10, 0.5, "")
				if len(tr.Shards) != 4 {
					t.Errorf("goroutine %d: %d spans", g, len(tr.Shards))
					return
				}
				// Exact results stay correct under concurrent mutation for
				// build-time objects: writers only touch a disjoint ID range.
				want := flat.Search(q, 10, 0.5)
				for j := range want {
					if j < len(got) && got[j].Dist > want[j].Dist {
						t.Errorf("goroutine %d: result %d worse than flat", g, j)
						return
					}
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			o := ds.Objects[i%ds.Len()]
			o.ID = uint32(910000 + i)
			if err := sharded.Insert(o); err != nil {
				t.Errorf("insert: %v", err)
				return
			}
			if err := sharded.Delete(o.ID); err != nil {
				t.Errorf("delete: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	if err := sharded.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
