package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"repro/internal/dataset"
	"repro/internal/metric"
)

// TestApproxGolden pins CSSIA's answers and its work: a sha256 over
// every answer's distance bits and its Stats counters (visited objects,
// clusters examined and pruned, intra-pruned and anchor-pruned rows), on
// Twitter- and Yelp-like corpora, at λ from 0 to 1 and k of 1, 10 and
// 50. The queries are stored objects (at λ = 0 such a query finds itself
// at projected distance 0) and points off the data. IDs are left out: two
// rows at the k-th distance are equally good answers, and which one a
// read keeps is the heap's tie rule, not CSSIA's.
func TestApproxGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests pinned on amd64: an architecture whose compiler fuses multiply-adds rounds the float64 reductions differently")
	}
	want := map[string]string{
		"twitter": "a8d6727506dab37b5a59697aa403f202ac2056a1c3ae9ac40f2f752eec4ebb36",
		"yelp":    "c0a9ecf2adb83640cbd01732cc6baeef767bea966fd356e04b574aa36317ee96",
	}
	for _, kind := range []dataset.Kind{dataset.TwitterLike, dataset.YelpLike} {
		f := build(t, kind, 3000, Config{Seed: 7})
		queries := f.ds.SampleQueries(20, 13)
		// Off-data queries: a stored location nudged, with the vector of
		// another object half-way mixed in.
		for i := 0; i < 20; i++ {
			a, b := &f.ds.Objects[(i*149)%f.ds.Len()], &f.ds.Objects[(i*263+7)%f.ds.Len()]
			q := dataset.Object{X: a.X + 0.001*float64(i), Y: a.Y - 0.0007*float64(i), Vec: make([]float32, len(a.Vec))}
			for j := range q.Vec {
				q.Vec[j] = (a.Vec[j] + b.Vec[j]) / 2
			}
			queries = append(queries, q)
		}
		h := sha256.New()
		var b [8]byte
		put := func(v uint64) {
			binary.LittleEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
		for _, lambda := range []float64{0, 0.1, 0.5, 0.9, 1} {
			for _, k := range []int{1, 10, 50} {
				for qi := range queries {
					var st metric.Stats
					res := f.idx.SearchApprox(&queries[qi], k, lambda, &st)
					put(uint64(len(res)))
					for _, r := range res {
						put(math.Float64bits(r.Dist))
					}
					for _, c := range []int64{st.VisitedObjects, st.ClustersExamined, st.ClustersPruned, st.IntraPruned, st.AnchorPruned} {
						put(uint64(c))
					}
				}
			}
		}
		name := kind.String()
		if got := hex.EncodeToString(h.Sum(nil)); got != want[name] {
			t.Errorf("%s: digest %s, want %s", name, got, want[name])
		}
	}
}
