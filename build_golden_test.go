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
// own objects, member lists saved in L_s order); BuildSharded adds the
// partitioning, the shared anchor set, the per-shard cluster counts and
// the per-shard seeds to what that test covers.
func TestBuildGoldenSharded(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests pinned on amd64 (see internal/core TestBuildGolden)")
	}
	want := map[DatasetKind]string{
		TwitterLike: "ae5054abdc7082a183e7296887fa8dd129239617939682bc2eb4a8d3a7adc835",
		YelpLike:    "fbbd1862b43e04395c23c552d181df2384488916a76007a51bc87e33dab03b0f",
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
			if err := cell.cur.Load().Save(h); err != nil {
				t.Fatal(err)
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want[kind] {
			t.Errorf("%v: digest %s, want %s", kind, got, want[kind])
		}
	}
}
