package dataset

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/vec"
)

func TestGenerateRejectsBadConfig(t *testing.T) {
	if _, err := Generate(GenConfig{Size: 0}); err == nil {
		t.Fatal("expected error for Size=0")
	}
	if _, err := Generate(GenConfig{Kind: Kind(99), Size: 10}); err == nil {
		t.Fatal("expected error for unknown kind")
	}
}

func TestGenerateTwitterBasics(t *testing.T) {
	ds, err := Generate(GenConfig{Kind: TwitterLike, Size: 500, Dim: 32, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 500 {
		t.Fatalf("Len = %d", ds.Len())
	}
	if ds.Dim != 32 {
		t.Fatalf("Dim = %d", ds.Dim)
	}
	for i, o := range ds.Objects {
		if o.ID != uint32(i) {
			t.Fatalf("object %d has ID %d", i, o.ID)
		}
		if o.X < 0 || o.X > 1 || o.Y < 0 || o.Y > 1 {
			t.Fatalf("object %d coordinates out of [0,1]: (%v,%v)", i, o.X, o.Y)
		}
		if len(o.Vec) != 32 {
			t.Fatalf("object %d vector dim %d", i, len(o.Vec))
		}
		if o.Text == "" {
			t.Fatalf("object %d has empty text", i)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, _ := Generate(GenConfig{Kind: YelpLike, Size: 200, Dim: 16, Seed: 42})
	b, _ := Generate(GenConfig{Kind: YelpLike, Size: 200, Dim: 16, Seed: 42})
	for i := range a.Objects {
		if a.Objects[i].Text != b.Objects[i].Text ||
			a.Objects[i].X != b.Objects[i].X ||
			vec.Dist(a.Objects[i].Vec, b.Objects[i].Vec) != 0 {
			t.Fatalf("object %d differs between identically-seeded runs", i)
		}
	}
	c, _ := Generate(GenConfig{Kind: YelpLike, Size: 200, Dim: 16, Seed: 43})
	if a.Objects[0].Text == c.Objects[0].Text && a.Objects[0].X == c.Objects[0].X {
		t.Fatal("different seeds gave identical first object")
	}
}

// Yelp-like data must be much more spatially concentrated than
// Twitter-like data — this drives the paper's §7.4 observation that
// spatial-first indexes beat Scan on Yelp only.
func TestYelpMoreSpatiallyClusteredThanTwitter(t *testing.T) {
	tw, _ := Generate(GenConfig{Kind: TwitterLike, Size: 2000, Dim: 8, Seed: 5})
	yp, _ := Generate(GenConfig{Kind: YelpLike, Size: 2000, Dim: 8, Seed: 5})
	spread := func(ds *Dataset) float64 {
		var mx, my float64
		for _, o := range ds.Objects {
			mx += o.X
			my += o.Y
		}
		mx /= float64(ds.Len())
		my /= float64(ds.Len())
		var v float64
		for _, o := range ds.Objects {
			v += (o.X-mx)*(o.X-mx) + (o.Y-my)*(o.Y-my)
		}
		return v / float64(ds.Len())
	}
	// Average nearest-centroid dispersion proxy: overall variance is not
	// quite the right statistic (metros can be far apart), so also check
	// local density: mean distance to the nearest of 200 sampled others.
	nnDist := func(ds *Dataset) float64 {
		var sum float64
		for i := 0; i < 200; i++ {
			o := ds.Objects[i*7%ds.Len()]
			best := math.Inf(1)
			for j := 0; j < 200; j++ {
				p := ds.Objects[(j*13+1)%ds.Len()]
				if p.ID == o.ID {
					continue
				}
				dx, dy := o.X-p.X, o.Y-p.Y
				if d := dx*dx + dy*dy; d < best {
					best = d
				}
			}
			sum += math.Sqrt(best)
		}
		return sum / 200
	}
	if nnDist(yp) >= nnDist(tw) {
		t.Fatalf("yelp local density (%v) should exceed twitter (%v)", nnDist(yp), nnDist(tw))
	}
	_ = spread
}

func TestObjectTextRoundTripsThroughModel(t *testing.T) {
	ds, _ := Generate(GenConfig{Kind: TwitterLike, Size: 50, Dim: 24, Seed: 9})
	// Re-encoding an object's text must reproduce its stored vector.
	for _, o := range ds.Objects[:10] {
		v, ok := ds.Model.EncodeDocument(o.Text)
		if !ok {
			t.Fatalf("object %d text rejected by model: %q", o.ID, o.Text)
		}
		if vec.Dist(v, o.Vec) > 1e-5 {
			t.Fatalf("object %d re-encoding differs by %v", o.ID, vec.Dist(v, o.Vec))
		}
	}
}

func TestSampleQueries(t *testing.T) {
	ds, _ := Generate(GenConfig{Kind: TwitterLike, Size: 300, Dim: 8, Seed: 2})
	qs := ds.SampleQueries(50, 1)
	if len(qs) != 50 {
		t.Fatalf("got %d queries", len(qs))
	}
	seen := make(map[uint32]struct{})
	for _, q := range qs {
		if _, dup := seen[q.ID]; dup {
			t.Fatalf("duplicate query object %d", q.ID)
		}
		seen[q.ID] = struct{}{}
	}
	qs2 := ds.SampleQueries(50, 1)
	for i := range qs {
		if qs[i].ID != qs2[i].ID {
			t.Fatal("SampleQueries not deterministic")
		}
	}
	// Requesting more queries than objects clamps.
	if got := ds.SampleQueries(1000, 3); len(got) != 300 {
		t.Fatalf("clamp failed: %d", len(got))
	}
}

func TestPrefix(t *testing.T) {
	ds, _ := Generate(GenConfig{Kind: TwitterLike, Size: 100, Dim: 8, Seed: 3})
	p := ds.Prefix(40)
	if p.Len() != 40 || p.Dim != 8 {
		t.Fatalf("Prefix wrong: len=%d dim=%d", p.Len(), p.Dim)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for oversize prefix")
		}
	}()
	ds.Prefix(101)
}

func TestSaveLoadRoundTrip(t *testing.T) {
	ds, _ := Generate(GenConfig{Kind: YelpLike, Size: 120, Dim: 16, Seed: 8})
	var buf bytes.Buffer
	if err := ds.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != ds.Len() || got.Dim != ds.Dim {
		t.Fatalf("round trip shape mismatch: %d/%d", got.Len(), got.Dim)
	}
	for i := range ds.Objects {
		a, b := ds.Objects[i], got.Objects[i]
		if a.ID != b.ID || a.X != b.X || a.Y != b.Y || a.Text != b.Text || vec.Dist(a.Vec, b.Vec) != 0 {
			t.Fatalf("object %d differs after round trip", i)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a gob stream"))); err == nil {
		t.Fatal("expected error for corrupt input")
	}
}

func TestKindString(t *testing.T) {
	if TwitterLike.String() != "twitter" || YelpLike.String() != "yelp" {
		t.Fatal("Kind.String broken")
	}
	if Kind(42).String() == "" {
		t.Fatal("unknown kind should still format")
	}
}

// TestGenerateDigest pins the generated corpora byte for byte: a sha256
// over every object's ID, coordinates, text, vector and topic of a
// TwitterLike and a YelpLike dataset. Every corpus the benchmarks and
// goldens read comes from these draws, so a faster generator must make
// the same ones.
func TestGenerateDigest(t *testing.T) {
	want := map[Kind]string{
		TwitterLike: "045e75d4cc0fedecfa05f4bb03eec3de2998dea28e59e65cffa52daf5ad25d03",
		YelpLike:    "2e3e8137c49c3595163b131cb12dc848299040918de8236bf7b345c7ae536a5d",
	}
	for _, kind := range []Kind{TwitterLike, YelpLike} {
		ds, err := Generate(GenConfig{Kind: kind, Size: 3000, Dim: 24, Seed: 83})
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		var b [8]byte
		put := func(v uint64) {
			binary.LittleEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
		for _, o := range ds.Objects {
			put(uint64(o.ID))
			put(math.Float64bits(o.X))
			put(math.Float64bits(o.Y))
			put(uint64(len(o.Text)))
			h.Write([]byte(o.Text))
			for _, f := range o.Vec {
				put(uint64(math.Float32bits(f)))
			}
			put(uint64(o.Topic))
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want[kind] {
			t.Errorf("%v: digest %s, want %s", kind, got, want[kind])
		}
	}
}
