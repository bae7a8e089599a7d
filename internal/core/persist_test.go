package core

import (
	"bytes"
	"encoding/gob"
	"testing"

	"repro/internal/dataset"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	f := build(t, dataset.TwitterLike, 600, Config{Seed: 80})
	var buf bytes.Buffer
	if err := f.idx.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, space, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if space.DsMax != f.sp.DsMax || space.DtMax != f.sp.DtMax || space.DtProjMax != f.sp.DtProjMax {
		t.Fatal("metric space not restored")
	}
	if loaded.Len() != f.idx.Len() || loaded.NumClusters() != f.idx.NumClusters() {
		t.Fatalf("shape mismatch: len %d/%d clusters %d/%d",
			loaded.Len(), f.idx.Len(), loaded.NumClusters(), f.idx.NumClusters())
	}
	requireClusterMajor(t, "loaded", loaded)
	// Loaded index answers identically for all algorithms.
	for qi := 0; qi < 5; qi++ {
		q := f.ds.Objects[(qi*83+3)%f.ds.Len()]
		for _, lambda := range []float64{0.2, 0.5, 1} {
			a := f.idx.Search(&q, 10, lambda, nil)
			b := loaded.Search(&q, 10, lambda, nil)
			sameResults(t, "loaded exact", a, b)
			aa := f.idx.SearchApprox(&q, 10, lambda, nil)
			bb := loaded.SearchApprox(&q, 10, lambda, nil)
			sameResults(t, "loaded approx", aa, bb)
		}
	}
}

func TestLoadedIndexSupportsMaintenance(t *testing.T) {
	f := build(t, dataset.TwitterLike, 300, Config{Seed: 81})
	var buf bytes.Buffer
	if err := f.idx.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, _, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	nova := f.ds.Objects[0]
	nova.ID = 70000
	nova.X = 0.9
	if err := loaded.Insert(nova); err != nil {
		t.Fatal(err)
	}
	if err := loaded.Delete(f.ds.Objects[5].ID); err != nil {
		t.Fatal(err)
	}
	if err := loaded.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != 300 {
		t.Fatalf("len = %d", loaded.Len())
	}
}

func TestSaveAfterMaintenanceRoundTrips(t *testing.T) {
	f := build(t, dataset.TwitterLike, 400, Config{Seed: 82})
	for i := 0; i < 50; i++ {
		if err := f.idx.Delete(f.ds.Objects[i].ID); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := f.idx.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, _, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != 350 {
		t.Fatalf("len = %d", loaded.Len())
	}
	if loaded.UpdatesSinceBuild != 50 {
		t.Fatalf("UpdatesSinceBuild = %d", loaded.UpdatesSinceBuild)
	}
	// Deleted objects stay deleted.
	if _, ok := loaded.Object(f.ds.Objects[3].ID); ok {
		t.Fatal("deleted object resurrected by round trip")
	}
	requireClusterMajor(t, "loaded after deletes", loaded)
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, _, err := Load(bytes.NewReader([]byte("junk"))); err == nil {
		t.Fatal("expected error")
	}
}

// saveAsV1 re-encodes a current save in the version-1 layout: per-object
// vectors and per-row Proj slices, no arenas, no strides — exactly what
// the pre-arena Save wrote (gob omits the zeroed arena fields from the
// stream just as it omitted the then-nonexistent ones).
func saveAsV1(t *testing.T, x *Index) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	if err := x.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var g gobIndex
	if err := gob.NewDecoder(&buf).Decode(&g); err != nil {
		t.Fatal(err)
	}
	g.Version = persistVersionV1
	g.Proj = make([][]float32, len(g.Objects))
	for i := range g.Objects {
		g.Objects[i].Vec = append([]float32(nil), g.VecArena[i*g.Dim:(i+1)*g.Dim]...)
		g.Proj[i] = append([]float32(nil), g.ProjArena[i*g.M:(i+1)*g.M]...)
	}
	g.Dim, g.M = 0, 0
	g.VecArena, g.ProjArena = nil, nil
	var v1 bytes.Buffer
	if err := gob.NewEncoder(&v1).Encode(&g); err != nil {
		t.Fatal(err)
	}
	return &v1
}

func TestLoadMigratesV1Format(t *testing.T) {
	f := build(t, dataset.TwitterLike, 500, Config{Seed: 83})
	loaded, space, err := Load(saveAsV1(t, f.idx))
	if err != nil {
		t.Fatal(err)
	}
	if space.DtMax != f.sp.DtMax || space.DtProjMax != f.sp.DtProjMax {
		t.Fatal("metric space not restored from v1 file")
	}
	if loaded.Len() != f.idx.Len() || loaded.Dim() != f.idx.Dim() {
		t.Fatalf("shape mismatch: len %d/%d dim %d/%d",
			loaded.Len(), f.idx.Len(), loaded.Dim(), f.idx.Dim())
	}
	if err := loaded.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The migrated arenas hold bit-identical values, so every algorithm
	// answers exactly as the original index does.
	for qi := 0; qi < 5; qi++ {
		q := f.ds.Objects[(qi*83+3)%f.ds.Len()]
		for _, lambda := range []float64{0.2, 0.5, 1} {
			sameResults(t, "v1 exact", f.idx.Search(&q, 10, lambda, nil), loaded.Search(&q, 10, lambda, nil))
			sameResults(t, "v1 approx", f.idx.SearchApprox(&q, 10, lambda, nil), loaded.SearchApprox(&q, 10, lambda, nil))
		}
	}
	// And the migrated index keeps supporting maintenance (arena appends).
	nova := f.ds.Objects[0]
	nova.ID = 90000
	if err := loaded.Insert(nova); err != nil {
		t.Fatal(err)
	}
	if err := loaded.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLoadRejectsUnknownVersion(t *testing.T) {
	f := build(t, dataset.TwitterLike, 200, Config{Seed: 84})
	var buf bytes.Buffer
	if err := f.idx.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var g gobIndex
	if err := gob.NewDecoder(&buf).Decode(&g); err != nil {
		t.Fatal(err)
	}
	g.Version = 99
	var out bytes.Buffer
	if err := gob.NewEncoder(&out).Encode(&g); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Load(&out); err == nil {
		t.Fatal("expected error for unknown persist version")
	}
}
