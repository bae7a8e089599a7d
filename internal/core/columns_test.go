package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/dataset"
	"repro/internal/metric"
)

// Every stored object is one row kept once: an ID, text and topic column
// beside the arenas, with the ID table mapping IDs to rows. These tests
// pin what that storage must keep of the objects (Object, Save), and
// what it costs (HeapBytes).

// writtenStates builds two written indexes: "bare", a built index after
// inserts, base deletes and deletes of its own inserts, which its first
// write gave an overlay of its own; and "compacted", the fold of a
// clone's overlay that buffered the same writes. want maps each to its
// live objects.
func writtenStates(t *testing.T) (map[string]*Index, map[string]map[uint32]dataset.Object) {
	t.Helper()
	pool, err := dataset.Generate(dataset.GenConfig{Kind: dataset.YelpLike, Size: 60, Dim: 32, Seed: 86})
	if err != nil {
		t.Fatal(err)
	}
	states := map[string]*Index{}
	want := map[string]map[uint32]dataset.Object{}
	for _, name := range []string{"bare", "compacted"} {
		f := build(t, dataset.TwitterLike, 500, Config{Seed: 85})
		live := liveObjects(f.ds.Objects)
		x := f.idx
		if name == "compacted" {
			x = cloneHeader(x)
		}
		for i, o := range pool.Objects[:40] {
			o.ID = uint32(600_000 + i)
			if err := x.Insert(o); err != nil {
				t.Fatal(err)
			}
			live[o.ID] = o
		}
		for i := 0; i < 20; i++ {
			id := f.ds.Objects[i*7].ID
			if i%4 == 3 {
				id = uint32(600_000 + i)
			}
			if err := x.Delete(id); err != nil {
				t.Fatal(err)
			}
			delete(live, id)
		}
		switch {
		case name == "compacted":
			if x, err = x.Compact(); err != nil {
				t.Fatal(err)
			}
		case x.DeltaOps() != 60 || len(x.vecArena) != 500*x.dim:
			t.Fatalf("bare writes buffered %d ops and left a vector arena of %d values for 500 rows", x.DeltaOps(), len(x.vecArena))
		}
		states[name], want[name] = x, live
	}
	return states, want
}

func liveObjects(objs []dataset.Object) map[uint32]dataset.Object {
	live := make(map[uint32]dataset.Object, len(objs))
	for _, o := range objs {
		live[o.ID] = o
	}
	return live
}

func saveBytes(t testing.TB, x *Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := x.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func loadBytes(t *testing.T, b []byte) *Index {
	t.Helper()
	x, _, err := Load(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// TestSaveLoadSaveBytes pins Save's bytes across Load. A cluster-major
// index — a fresh build — saves, loads and saves again to the same
// bytes, and so does every written state once loaded. Both written
// states save as the fold through derive writes them — Save folds a
// bare index's overlay first — live rows only, cluster-major, every
// radius the max over its live rows.
func TestSaveLoadSaveBytes(t *testing.T) {
	f := build(t, dataset.TwitterLike, 500, Config{Seed: 85})
	first := saveBytes(t, f.idx)
	if again := saveBytes(t, loadBytes(t, first)); !bytes.Equal(first, again) {
		t.Fatal("flat: Save → Load → Save changed the bytes")
	}
	states, _ := writtenStates(t)
	const digest = "a34f796900768e224144e557a22b897ef8569f134fd6dbff9316926df1898323"
	for name, x := range states {
		first := saveBytes(t, x)
		if runtime.GOARCH == "amd64" {
			sum := sha256.Sum256(first)
			if got := hex.EncodeToString(sum[:]); got != digest {
				t.Errorf("%s: saved bytes digest %s, want %s", name, got, digest)
			}
		}
		second := saveBytes(t, loadBytes(t, first))
		if third := saveBytes(t, loadBytes(t, second)); !bytes.Equal(second, third) {
			t.Fatalf("%s: Save → Load → Save of a loaded index changed the bytes", name)
		}
	}
}

// A cluster header is what a cluster visit reads before it touches a
// row, and it is one 64-byte cache line (on 64-bit platforms).
func TestHybridHeaderIsOneLine(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the header is sized for 64-bit words")
	}
	if s := unsafe.Sizeof(hybrid{}); s != 64 {
		t.Fatalf("hybrid header is %d B, want one 64-byte line", s)
	}
}

// requireObjects holds Object to the objects the index was given: every
// live ID returns its object, field for field and vector for vector, and
// a few IDs that are not live return nothing.
func requireObjects(t *testing.T, ctx string, x *Index, want map[uint32]dataset.Object, gone ...uint32) {
	t.Helper()
	if x.Len() != len(want) {
		t.Fatalf("%s: %d live objects, want %d", ctx, x.Len(), len(want))
	}
	for id, w := range want {
		got, ok := x.Object(id)
		if !ok {
			t.Fatalf("%s: live object %d not found", ctx, id)
		}
		if got.ID != w.ID || got.X != w.X || got.Y != w.Y || got.Text != w.Text || got.Topic != w.Topic || !slices.Equal(got.Vec, w.Vec) {
			t.Fatalf("%s: object %d is %+v, want %+v", ctx, id, got, w)
		}
	}
	for _, id := range gone {
		if _, ok := x.Object(id); ok {
			t.Fatalf("%s: object %d is not live but found", ctx, id)
		}
	}
}

// TestObjectAssembledFromColumns: Object returns what was inserted, for
// base rows, a bare index's overlay rows, a clone's overlay rows, and
// after Compact, RebuildFresh and Load.
func TestObjectAssembledFromColumns(t *testing.T) {
	f := build(t, dataset.TwitterLike, 500, Config{Seed: 85})
	requireObjects(t, "built", f.idx, liveObjects(f.ds.Objects), 123_456)

	states, want := writtenStates(t)
	gone := []uint32{f.ds.Objects[0].ID, 600_003}
	requireObjects(t, "bare writes", states["bare"], want["bare"], gone...)
	requireObjects(t, "compacted", states["compacted"], want["compacted"], gone...)
	requireObjects(t, "loaded", loadBytes(t, saveBytes(t, states["bare"])), want["bare"], gone...)

	ov := cloneHeader(states["compacted"])
	live := want["compacted"]
	o := f.ds.Objects[0]
	o.ID, o.Text, o.Topic = 700_000, "a fresh text", 3
	if err := ov.Insert(o); err != nil {
		t.Fatal(err)
	}
	live[o.ID] = o
	if err := ov.Delete(600_000); err != nil {
		t.Fatal(err)
	}
	delete(live, 600_000)
	requireObjects(t, "overlay", ov, live, append(gone, 600_000)...)

	requireObjects(t, "rebuilt", rebuilt(t, states["bare"]), want["bare"], gone...)
}

// TestHeapLedger holds HeapBytes to the heap a build keeps: the ledger's
// total is within 5 % of the live-heap growth across Build, measured
// after two collections, and at most maxBytesPerRow per row — what the
// index costs once no side cluster lists its members, the two side
// assignments are one cell column, and a hybrid keeps only its array and
// the base no deleted bitmap (542.5 B/row with side lists, 519.2 with
// the hybrids' sorted lists). It logs the ledger per structure, in MiB
// and in bytes per row.
func TestHeapLedger(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory moves the live heap")
	}
	const n, maxBytesPerRow = 20_000, 504
	ds, err := dataset.Generate(dataset.GenConfig{Kind: dataset.TwitterLike, Size: n, Dim: 100, Seed: 51})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := metric.NewSpace(ds)
	if err != nil {
		t.Fatal(err)
	}
	live := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := live()
	x, err := Build(ds, sp, Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	measured := live() - before
	h := x.HeapBytes()
	runtime.KeepAlive(ds) // the corpus is no part of the growth
	runtime.KeepAlive(x)

	const mib = 1 << 20
	for _, r := range []struct {
		name  string
		bytes int64
	}{
		{"vectors", h.Vectors}, {"projections", h.Projections}, {"coords", h.Coords},
		{"anchors", h.Anchors}, {"ids", h.IDs}, {"texts", h.Texts}, {"topics", h.Topics},
		{"assign", h.Assign}, {"elems", h.Elems}, {"clusters", h.Clusters},
		{"model", h.Model}, {"ID table", h.IDTable}, {"overlay", h.Overlay},
	} {
		t.Logf("%-12s %7.3f MiB %6.1f B/row", r.name, float64(r.bytes)/mib, float64(r.bytes)/n)
	}
	t.Logf("%-12s %7.3f MiB %6.1f B/row; measured %.3f MiB", "total", float64(h.Total())/mib, float64(h.Total())/n, float64(measured)/mib)
	if off := float64(h.Total()-measured) / float64(measured); off < -0.05 || off > 0.05 {
		t.Fatalf("ledger %d B is %+.1f%% off the measured %d B", h.Total(), 100*off, measured)
	}
	if perRow := float64(h.Total()) / n; perRow > maxBytesPerRow {
		t.Fatalf("ledger %.1f B/row, want at most %d", perRow, maxBytesPerRow)
	}
}
