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
// assignments, member lists in order, router weights — the format holds
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

// TestBuildGolden pins the built index bit for bit. The digests were
// taken from the commit before the build kernels changed (stride-aware
// K-Means arg-min, row-parallel Mul, parallel router labelling, blocked
// anchor ranking, single arena copy): a build optimisation reproduces
// them or it changed the index. "shared" is the shape BuildSharded gives
// a shard: an anchor set fitted over the whole corpus, the build over a
// third of it under global cluster counts.
func TestBuildGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests pinned on amd64: an architecture whose compiler fuses multiply-adds rounds the float64 reductions differently")
	}
	want := map[string]string{
		"twitter/flat":   "ad58abb13f7d42d1d6384641558d2fbb7666de3722ac1429e2a32c14c681bc32",
		"twitter/shared": "4bf2c35ce49ac97de18454f99035fd10b9063e79b83d5847343d4223c8ec2c6f",
		"yelp/flat":      "8ef252848c28d93463cd58aa55dc47fe74edfe946efe445b4951d3702c81779b",
		"yelp/shared":    "69499af9095876f6995f394d10cb37f4c4e4bad9473ec32a6b3b5c6de08ded40",
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

		k := DeriveClusterCount(ds.Len(), 0)
		cfg := Config{Seed: 8, Ks: k, Kt: k}
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
