package cssi

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"
)

// TestBuildGoldenSharded pins what BuildSharded(P = 3) builds: the
// sha256 of the three shards' Save bytes in shard order. Like
// internal/core's TestBuildGolden, the digests come from the commit
// before the build kernels changed; BuildSharded adds the partitioning,
// the shared anchor set, the global cluster counts and the per-shard
// seeds to what that test covers.
func TestBuildGoldenSharded(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests pinned on amd64 (see internal/core TestBuildGolden)")
	}
	want := map[DatasetKind]string{
		TwitterLike: "36fd41b628617448df3739f5bcf6ea599702c7064bf1b9f66d0c3c1fb43e6e8b",
		YelpLike:    "90ba0ab4fcc9247bbbe8c3195e901c610ff23c73eb4d8cc19d3c6c47641421bb",
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
