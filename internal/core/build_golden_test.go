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
// assignments — the format holds no map, so it is deterministic)
// followed by what Save leaves out: the anchor arena, then every
// cluster's element array in directory order, each element's storage
// position and threshold bits.
func goldenDigest(t *testing.T, x *Index) string {
	t.Helper()
	h := sha256.New()
	if err := x.Save(h); err != nil {
		t.Fatal(err)
	}
	h.Write(x.anchors.id)
	var b [8]byte
	for _, d := range x.anchors.dist {
		binary.LittleEndian.PutUint32(b[:4], math.Float32bits(d))
		h.Write(b[:4])
	}
	for _, c := range x.clusters {
		for _, e := range c.elems {
			binary.LittleEndian.PutUint32(b[:4], e.idx)
			h.Write(b[:4])
			for _, v := range []float64{e.ds, e.dt} {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
				h.Write(b[:])
			}
		}
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
// ascending storage order, then every derived section dropped from the
// file and the element arrays hashed after it instead — and were
// unchanged by the build-kernel rework before that. The last re-pin
// moved nothing else: the code before it, given only this Save and this
// digest, gives these digests. "shared"
// is the shape BuildSharded gives a shard: an anchor set fitted over
// the whole corpus, the build over a third of it deriving its own
// cluster counts.
func TestBuildGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests pinned on amd64: an architecture whose compiler fuses multiply-adds rounds the float64 reductions differently")
	}
	want := map[string]string{
		"twitter/flat":   "8c4fdbeeae44debf49685db62f3f6a528cb5fdde72e886d3d405dfbd9dd5ed37",
		"twitter/shared": "accc4e426441657a96d3b6b37545a853f7e4cf978f09bab3d976931327f4d03f",
		"yelp/flat":      "effb7b33f4950ad2fa546b3b3ed255a50fed20d281d43708b7611c211e631606",
		"yelp/shared":    "5d7f01e4e25e154f0cb51f1f3071c8a5c53da350b98ddc341cdd5230f8209b8c",
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
