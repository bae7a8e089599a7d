package obs

import (
	"encoding/json"
	"strings"
	"testing"
)

func validHex16(t *testing.T, id string) {
	t.Helper()
	if len(id) != 16 {
		t.Fatalf("id %q: length %d, want 16", id, len(id))
	}
	if !isLowerHex(id) {
		t.Fatalf("id %q: not lowercase hex", id)
	}
}

func TestNewRequestIDFormat(t *testing.T) {
	for i := 0; i < 100; i++ {
		id := NewRequestID()
		validHex16(t, id)
		if !ValidSpanID(id) {
			t.Fatalf("id %q rejected by ValidSpanID", id)
		}
	}
}

func TestNewRequestIDCollisions(t *testing.T) {
	const n = 100000
	seen := make(map[string]struct{}, n)
	for i := 0; i < n; i++ {
		id := NewRequestID()
		if _, dup := seen[id]; dup {
			t.Fatalf("duplicate request ID %q after %d draws", id, i)
		}
		seen[id] = struct{}{}
	}
}

func TestFallbackRequestID(t *testing.T) {
	// The entropy-free path must produce the same 16-hex shape and stay
	// unique within a process (monotonic counter under a clock-seeded
	// base).
	seen := make(map[string]struct{})
	for i := 0; i < 1000; i++ {
		id := fallbackRequestID()
		validHex16(t, id)
		if _, dup := seen[id]; dup {
			t.Fatalf("fallback duplicate %q", id)
		}
		seen[id] = struct{}{}
	}
}

func TestTraceFinishIdempotent(t *testing.T) {
	tr := &Trace{
		Shards: []ShardSpan{
			{Shard: 0, Stats: SearchStats{ClustersTotal: 10, OrderNanos: 5, ScanNanos: 20}},
			{Shard: 1, Stats: SearchStats{ClustersTotal: 6, OrderNanos: 3, ScanNanos: 9}},
		},
	}
	tr.Shards[0].Stats.VisitedObjects = 40
	tr.Shards[0].Stats.InterPruned = 60
	tr.Shards[1].Stats.VisitedObjects = 10
	tr.Shards[1].Stats.InterPruned = 90

	tr.Finish(0.25, 1000)
	first, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	// Finish must rebuild Total from the spans, not accumulate into it.
	tr.Finish(0.25, 1000)
	second, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	if string(first) != string(second) {
		t.Fatalf("Finish not idempotent:\n first=%s\nsecond=%s", first, second)
	}
	if got, want := tr.Total.ClustersTotal, int64(16); got != want {
		t.Fatalf("Total.ClustersTotal = %d, want %d", got, want)
	}
	if tr.Total.KthDistance != 0.25 {
		t.Fatalf("Total.KthDistance = %v, want 0.25", tr.Total.KthDistance)
	}
}

func TestFillDerivedIdempotent(t *testing.T) {
	sp := ShardSpan{Stats: SearchStats{}}
	sp.Stats.VisitedObjects = 25
	sp.Stats.InterPruned = 50
	sp.Stats.IntraPruned = 25
	sp.Stats.ClustersTotal = 8
	sp.Stats.ClustersPruned = 6
	sp.FillDerived()
	re, cp := sp.ReadEfficiency, sp.ClustersPrunedRatio
	if re != 0.75 {
		t.Fatalf("ReadEfficiency = %v, want 0.75", re)
	}
	if cp != 0.75 {
		t.Fatalf("ClustersPrunedRatio = %v, want 0.75", cp)
	}
	sp.FillDerived()
	if sp.ReadEfficiency != re || sp.ClustersPrunedRatio != cp {
		t.Fatalf("FillDerived not idempotent: %v/%v then %v/%v",
			re, cp, sp.ReadEfficiency, sp.ClustersPrunedRatio)
	}
}

func TestCheckInvariants(t *testing.T) {
	mk := func(mut func(*Trace)) *Trace {
		tr := &Trace{
			DurationNanos: 1000,
			Shards: []ShardSpan{{
				DurationNanos: 400,
				Stats:         SearchStats{OrderNanos: 100, ScanNanos: 200, RouteNanos: 50, DeltaNanos: 50},
			}},
		}
		if mut != nil {
			mut(tr)
		}
		return tr
	}
	if err := mk(nil).CheckInvariants(); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Trace)
		want string
	}{
		{"negative phase", func(tr *Trace) { tr.Shards[0].Stats.ScanNanos = -1 }, "negative"},
		{"stale quant phase writer", func(tr *Trace) { tr.Shards[0].Stats.QuantNanos = 1 }, "quantNanos"},
		{"stale quant counter writer", func(tr *Trace) { tr.Shards[0].Stats.QuantReranked = 1 }, "quantReranked"},
		{"anchor skips exceed visits", func(tr *Trace) { tr.Shards[0].Stats.AnchorPruned = 1 }, "anchorPruned"},
		{"route exceeds order", func(tr *Trace) { tr.Shards[0].Stats.RouteNanos = 150 }, "routeNanos"},
		{"phase sum exceeds span wall", func(tr *Trace) { tr.Shards[0].Stats.DeltaNanos = 200 }, "phase sum"},
		{"span exceeds trace", func(tr *Trace) { tr.Shards[0].DurationNanos = 1500 }, "exceeds trace duration"},
		{"negative gather", func(tr *Trace) { tr.GatherNanos = -5 }, "gatherNanos"},
		{"sequential sum exceeds duration", func(tr *Trace) {
			tr.Shards = append(tr.Shards, ShardSpan{DurationNanos: 500})
			tr.GatherNanos = 200
		}, "sequential"},
	}
	for _, c := range cases {
		err := mk(c.mut).CheckInvariants()
		if err == nil {
			t.Errorf("%s: invariant violation not detected", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
	// Parallel spans are individually bounded but need not sum.
	par := mk(func(tr *Trace) {
		tr.Parallel = true
		tr.Shards = append(tr.Shards, ShardSpan{DurationNanos: 900})
		tr.GatherNanos = 100
	})
	if err := par.CheckInvariants(); err != nil {
		t.Fatalf("parallel trace rejected: %v", err)
	}
}

func TestTraceResetKeepsSpanCapacity(t *testing.T) {
	tr := &Trace{}
	tr.Shards = append(tr.Shards, ShardSpan{Shard: 1}, ShardSpan{Shard: 2})
	c := cap(tr.Shards)
	tr.RequestID = "deadbeefdeadbeef"
	tr.Reset()
	if len(tr.Shards) != 0 || cap(tr.Shards) != c {
		t.Fatalf("Reset: len=%d cap=%d, want 0/%d", len(tr.Shards), cap(tr.Shards), c)
	}
	if tr.RequestID != "" {
		t.Fatalf("Reset kept RequestID %q", tr.RequestID)
	}
}
