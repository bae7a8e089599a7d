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
// storage order); BuildSharded adds the
// partitioning, the shared anchor set, the per-shard cluster counts and
// the per-shard seeds to what that test covers.
func TestBuildGoldenSharded(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests pinned on amd64 (see internal/core TestBuildGolden)")
	}
	want := map[DatasetKind]string{
		TwitterLike: "276358ec3fe5d477e9b9118a9d2cd20e763def6b76c6edf41b2c32181d6a98df",
		YelpLike:    "ed19171a721f33a264f1dbf00654389ad38bcc6ef2e6fe17c49e9375f5611e12",
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
