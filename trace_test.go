package cssi

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/obs"
)

// traceFixtures builds the flavors over one dataset, each with a
// keep-everything sink installed, plus sink-free twins for the
// bit-identity comparison.
func traceFixtures(t *testing.T) (*Dataset, []searchAPI, []searchAPI, []*obs.Sink) {
	t.Helper()
	ds, err := GenerateDataset(DatasetConfig{Kind: TwitterLike, Size: 600, Dim: 24, Seed: 71})
	if err != nil {
		t.Fatal(err)
	}
	traced := requestFixtures(t, ds, true)
	plain := requestFixtures(t, ds, true)
	sinks := make([]*obs.Sink, len(traced))
	for i := range traced {
		sinks[i] = obs.NewSink(obs.SinkConfig{BufferSize: 256, SlowThreshold: -1, SampleEvery: 1})
		traced[i].setSink(sinks[i])
	}
	return ds, traced, plain, sinks
}

func TestTracedResultsBitIdentical(t *testing.T) {
	ds, traced, plain, sinks := traceFixtures(t)
	reqs := []SearchRequest{
		{K: 10, Lambda: 0.5},
		{K: 5, Lambda: 0.2, Approx: true},
		{K: 8, Lambda: 0.7, Route: true},
	}
	for i := range traced {
		for ri, base := range reqs {
			for qi := 0; qi < 10; qi++ {
				req := base
				req.Query = &ds.Objects[qi*7%len(ds.Objects)]
				req.RequestID = fmt.Sprintf("%04x%04x%08x", i, ri, qi)
				got, err := traced[i].do(req)
				if err != nil {
					t.Fatalf("%s req %d: %v", traced[i].name, ri, err)
				}
				req.RequestID = ""
				want, err := plain[i].do(req)
				if err != nil {
					t.Fatalf("%s untraced req %d: %v", plain[i].name, ri, err)
				}
				if len(got) != len(want) {
					t.Fatalf("%s req %d query %d: traced %d results, untraced %d",
						traced[i].name, ri, qi, len(got), len(want))
				}
				for j := range got {
					if got[j] != want[j] {
						t.Fatalf("%s req %d query %d result %d: traced %+v != untraced %+v",
							traced[i].name, ri, qi, j, got[j], want[j])
					}
				}
			}
		}
	}
	// Every traced query was retained (SampleEvery=1) with a sound span
	// tree, retrievable by the request ID the caller stamped.
	for i, s := range sinks {
		seen, retained, _ := s.Counts()
		if want := uint64(len(reqs) * 10); seen != want || retained != want {
			t.Fatalf("%s sink: seen=%d retained=%d, want %d", traced[i].name, seen, retained, want)
		}
		tr := s.Ring().Lookup(fmt.Sprintf("%04x%04x%08x", i, 1, 3))
		if tr == nil {
			t.Fatalf("%s: stamped request ID not retrievable", traced[i].name)
		}
		if tr.K != 5 || !contains(tr.Algo, "cssia") {
			t.Fatalf("%s: trace envelope %q k=%d, want approx k=5", traced[i].name, tr.Algo, tr.K)
		}
		for _, got := range s.Ring().Snapshot(0) {
			if err := got.CheckInvariants(); err != nil {
				t.Fatalf("%s trace %s: %v", traced[i].name, got.RequestID, err)
			}
			if got.DurationNanos <= 0 || len(got.Shards) == 0 {
				t.Fatalf("%s trace %s: empty span tree (dur=%d spans=%d)",
					traced[i].name, got.RequestID, got.DurationNanos, len(got.Shards))
			}
		}
	}
}

func TestTracedBatchBitIdentical(t *testing.T) {
	ds, traced, plain, sinks := traceFixtures(t)
	queries := make([]Object, 12)
	for i := range queries {
		queries[i] = ds.Objects[i*11%len(ds.Objects)]
	}
	req := BatchSearchRequest{Queries: queries, K: 6, Lambda: 0.4, Parallelism: 2}
	for i := range traced {
		req.RequestID = fmt.Sprintf("batch%011x", i)
		got, err := traced[i].doBatch(req)
		if err != nil {
			t.Fatalf("%s: %v", traced[i].name, err)
		}
		req.RequestID = ""
		want, err := plain[i].doBatch(req)
		if err != nil {
			t.Fatalf("%s untraced: %v", plain[i].name, err)
		}
		for q := range got {
			for j := range got[q] {
				if got[q][j] != want[q][j] {
					t.Fatalf("%s query %d result %d: %+v != %+v", traced[i].name, q, j, got[q][j], want[q][j])
				}
			}
		}
		tr := sinks[i].Ring().Lookup(fmt.Sprintf("batch%011x", i))
		if tr == nil {
			t.Fatalf("%s: batch trace not retained", traced[i].name)
		}
		if tr.Op != "batch" || tr.Queries != len(queries) {
			t.Fatalf("%s: batch trace op=%q queries=%d", traced[i].name, tr.Op, tr.Queries)
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("%s batch trace: %v", traced[i].name, err)
		}
	}
}

// TestTraceSinkUninstall asserts nil uninstalls the sink and stops
// recording without touching search behavior.
func TestTraceSinkUninstall(t *testing.T) {
	ds, traced, _, sinks := traceFixtures(t)
	for i := range traced {
		traced[i].setSink(nil)
		if _, err := traced[i].do(SearchRequest{Query: &ds.Objects[0], K: 3, Lambda: 0.5}); err != nil {
			t.Fatalf("%s after uninstall: %v", traced[i].name, err)
		}
		if seen, _, _ := sinks[i].Counts(); seen != 0 {
			t.Fatalf("%s: uninstalled sink saw %d traces", traced[i].name, seen)
		}
	}
}

// TestTraceErrorRetained asserts a request that fails while executing
// is still traced and tail-retained with its error recorded, even at a
// sampling rate that would drop it as normal traffic. (A request
// rejected by validation never executes and leaves no trace.)
func TestTraceErrorRetained(t *testing.T) {
	ds, err := GenerateDataset(DatasetConfig{Kind: TwitterLike, Size: 200, Dim: 16, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := Build(ds, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	idx.EnableKeywordFilter()
	sink := obs.NewSink(obs.SinkConfig{BufferSize: 16, SlowThreshold: -1, SampleEvery: -1})
	idx.SetTraceSink(sink)
	_, doErr := idx.Do(SearchRequest{Query: &ds.Objects[0], K: 3, Lambda: 0.5, Keywords: []string{"of"}, RequestID: "errbadkwbadkwbad"})
	if !errors.Is(doErr, ErrUnusableKeywords) {
		t.Fatalf("stop-word keywords: err = %v, want ErrUnusableKeywords", doErr)
	}
	tr := sink.Ring().Lookup("errbadkwbadkwbad")
	if tr == nil {
		t.Fatal("errored trace not retained")
	}
	if tr.SampleReason != obs.KeepError || tr.Error == "" {
		t.Fatalf("errored trace reason=%q error=%q", tr.SampleReason, tr.Error)
	}
	if _, err := idx.Do(SearchRequest{Query: &ds.Objects[0], K: 3, Lambda: 2}); !errors.Is(err, ErrInvalidLambda) {
		t.Fatalf("Lambda=2: err = %v, want ErrInvalidLambda", err)
	}
	if seen, _, _ := sink.Counts(); seen != 1 {
		t.Fatalf("sink saw %d traces, want 1 (a rejected request records none)", seen)
	}
	// The sink installed on the index keeps recording once it is wrapped.
	wrapped := ShardedFrom(idx)
	if _, err := wrapped.Do(SearchRequest{Query: &ds.Objects[0], K: 3, Lambda: 0.5}); err != nil {
		t.Fatal(err)
	}
	if seen, _, _ := sink.Counts(); seen != 2 || wrapped.TraceSink() != sink {
		t.Fatalf("wrapped: sink saw %d traces, want 2 (TraceSink adopted: %v)", seen, wrapped.TraceSink() == sink)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// benchSinkOverhead is a paired micro-benchmark of the traced Do path;
// run with -bench TraceOverhead to spot-check the <1% budget locally
// (the authoritative gate is cssibench -exp obs).
func BenchmarkTraceOverhead(b *testing.B) {
	ds, err := GenerateDataset(DatasetConfig{Kind: TwitterLike, Size: 2000, Dim: 32, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	idx, err := Build(ds, Options{Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []string{"off", "on"} {
		b.Run(mode, func(b *testing.B) {
			if mode == "on" {
				idx.SetTraceSink(obs.NewSink(obs.SinkConfig{BufferSize: 256, SlowThreshold: 100 * time.Millisecond, SampleEvery: 128}))
			} else {
				idx.SetTraceSink(nil)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := idx.Do(SearchRequest{Query: &ds.Objects[i%len(ds.Objects)], K: 10, Lambda: 0.5}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
