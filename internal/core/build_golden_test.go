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

// goldenDigest is the sha256 of everything Build decides: the Save
// bytes (objects in storage order, arenas, PCA model, centroids, radii,
// assignments, member lists in order — the format holds
// no map, so it is deterministic) followed by the anchor arena, which
// Save leaves out.
func goldenDigest(t *testing.T, x *Index) string {
	t.Helper()
	h := sha256.New()
	if err := x.Save(h); err != nil {
		t.Fatal(err)
	}
	h.Write(x.anchors.id)
	var b [4]byte
	for _, d := range x.anchors.dist {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(d))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestBuildGolden pins the built index bit for bit: a build optimisation
// reproduces these digests or it changed the index. They were re-pinned
// when the index changed on purpose — cluster counts √n·f scaled by 0.7
// and derived per build, a fixed anchor count, member lists saved in
// their maintained L_s order with zero counts kept in the saved Config,
// the cluster router's weights dropped from the file, the side member
// lists (derived since the index stopped keeping them) saved in
// ascending storage order — and were unchanged by the build-kernel
// rework before that. The last re-pin moved nothing else: the parent
// code with only its saved side-list order changed gives these digests. "shared"
// is the shape BuildSharded gives a shard: an anchor set fitted over
// the whole corpus, the build over a third of it deriving its own
// cluster counts.
func TestBuildGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests pinned on amd64: an architecture whose compiler fuses multiply-adds rounds the float64 reductions differently")
	}
	want := map[string]string{
		"twitter/flat":   "350d03c4f8121a277e1d5bc620c1765b85260592265f3c9192dfb08acf22f86e",
		"twitter/shared": "615fdd988d8aadc3be7546206bad6ec6f285a631f70369869fe1a5373fdac630",
		"yelp/flat":      "3f31e873e66842b31ad1f75ad203b775f70260622c2f74c90fb9ac548c3903c7",
		"yelp/shared":    "3858bbdbc63dc78492fff2d059784c7c36b409c395d62548b87de8304b82ade7",
	}
	for _, kind := range []dataset.Kind{dataset.TwitterLike, dataset.YelpLike} {
		ds, err := dataset.Generate(dataset.GenConfig{Kind: kind, Size: 3000, Dim: 32, Seed: 51})
		if err != nil {
			t.Fatal(err)
		}
		sp, err := metric.NewSpace(ds)
		if err != nil {
			t.Fatal(err)
		}
		flatSpace := *sp
		flat, err := Build(ds, &flatSpace, Config{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}

		cfg := Config{Seed: 8}
		part := &dataset.Dataset{Dim: ds.Dim, Model: ds.Model}
		for i := 0; i < ds.Len(); i += 3 {
			part.Objects = append(part.Objects, ds.Objects[i])
		}
		sharedSpace := *sp
		shared, err := BuildWithAnchors(part, &sharedSpace, cfg, FitAnchors(ds, sp, cfg))
		if err != nil {
			t.Fatal(err)
		}

		for name, x := range map[string]*Index{"flat": flat, "shared": shared} {
			name = kind.String() + "/" + name
			if got := goldenDigest(t, x); got != want[name] {
				t.Errorf("%s: digest %s, want %s", name, got, want[name])
			}
		}
	}
}
