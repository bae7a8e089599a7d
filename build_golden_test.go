package cssi

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"
)

// TestBuildGoldenSharded pins what BuildSharded(P = 3) builds: the
// sha256 of the three shards' Save bytes in shard order. Like
// internal/core's TestBuildGolden, the digests were re-pinned when the
// index changed on purpose (cluster counts derived per shard from its
// own objects, member lists saved in L_s order, the cluster router's
// weights dropped from the file, side member lists saved in ascending
// storage order, every derived section dropped from the file); these
// Save bytes pin the base state, and internal/core's digest adds the
// element arrays. BuildSharded adds the
// partitioning, the shared anchor set, the per-shard cluster counts and
// the per-shard seeds to what that test covers.
func TestBuildGoldenSharded(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests pinned on amd64 (see internal/core TestBuildGolden)")
	}
	want := map[DatasetKind]string{
		TwitterLike: "e7dc50fa28e89295fdd2231574d9372516ec56f2f88c637a522a2a82e54ee6e5",
		YelpLike:    "889839a2232e5c4266fc6de5014e808a6ccf656944d28eaf7021f4442e7e4d81",
	}
	for _, kind := range []DatasetKind{TwitterLike, YelpLike} {
		ds, err := GenerateDataset(DatasetConfig{Kind: kind, Size: 3000, Dim: 32, Seed: 51})
		if err != nil {
			t.Fatal(err)
		}
		sh, err := BuildSharded(ds, 3, Options{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for _, cell := range sh.shards {
			if err := cell.cur.Load().core.Save(h); err != nil {
				t.Fatal(err)
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want[kind] {
			t.Errorf("%v: digest %s, want %s", kind, got, want[kind])
		}
	}
}
