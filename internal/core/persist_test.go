package core

import (
	"bytes"
	"encoding/gob"
	"os"
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

// A file whose cluster directory or assignments are damaged fails Load;
// before the grid existed such a file loaded and panicked in the first
// search.
func TestLoadRejectsBadClusterSides(t *testing.T) {
	f := build(t, dataset.TwitterLike, 200, Config{Seed: 89})
	var saved bytes.Buffer
	if err := f.idx.Save(&saved); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func(g *gobIndex)
	}{
		{"cluster side out of range", func(g *gobIndex) { g.Clusters[0].S = 1 << 20 }},
		{"negative cluster side", func(g *gobIndex) { g.Clusters[0].T = -1 }},
		{"two clusters naming one pair", func(g *gobIndex) {
			g.Clusters[1].S, g.Clusters[1].T = g.Clusters[0].S, g.Clusters[0].T
		}},
		{"spatial assignment out of range", func(g *gobIndex) { g.SAssign[3] = len(g.SCentX) }},
		{"semantic assignment out of range", func(g *gobIndex) { g.TAssign[3] = -2 }},
		{"assignments one row short", func(g *gobIndex) { g.SAssign = g.SAssign[1:] }},
		{"member position out of range", func(g *gobIndex) { g.Clusters[0].Members[0].Idx = uint32(len(g.Objects)) }},
		{"member listed by a cluster its assignment does not name", func(g *gobIndex) {
			g.Clusters[0].Members[0].Idx = g.Clusters[1].Members[0].Idx
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var g gobIndex
			if err := gob.NewDecoder(bytes.NewReader(saved.Bytes())).Decode(&g); err != nil {
				t.Fatal(err)
			}
			c.mutate(&g)
			var out bytes.Buffer
			if err := gob.NewEncoder(&out).Encode(&g); err != nil {
				t.Fatal(err)
			}
			if _, _, err := Load(&out); err == nil {
				t.Fatalf("Load accepted a file with %s", c.name)
			}
		})
	}
}

// A file written by the last commit that still kept an SQ8 arena (200
// objects × 8 dims, version 4: four Quant* fields in the stream, the
// arena's on/off flag in Cfg's wire type and the five Route* fields of
// the removed cluster router) loads — gob skips what gobIndex no longer
// declares — and answers exactly. Saving it again drops the arena's
// dim+4 bytes per object and the router, and nothing an answer reads.
func TestLoadParentWrittenFile(t *testing.T) {
	raw, err := os.ReadFile("testdata/parent_v4_quant.cssi")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte("QuantCodes")) {
		t.Fatal("fixture carries no quant arena")
	}
	if !bytes.Contains(raw, []byte("RouteW")) {
		t.Fatal("fixture carries no router weights")
	}
	loaded, _, err := Load(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	const n, dim = 200, 8
	if loaded.Len() != n || loaded.Dim() != dim {
		t.Fatalf("loaded %d objects of dim %d, want %d of %d", loaded.Len(), loaded.Dim(), n, dim)
	}
	var resaved bytes.Buffer
	if err := loaded.Save(&resaved); err != nil {
		t.Fatal(err)
	}
	if shrunk := len(raw) - resaved.Len(); shrunk < n*(dim+4) {
		t.Fatalf("re-saved file is %d B smaller, want at least %d", shrunk, n*(dim+4))
	}
	if bytes.Contains(resaved.Bytes(), []byte("RouteW")) {
		t.Fatal("re-saved file still carries router weights")
	}
	again, _, err := Load(&resaved)
	if err != nil {
		t.Fatal(err)
	}
	if err := again.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	sc, live := liveSet(loaded)
	for qi := 0; qi < 8; qi++ {
		q := live.Objects[(qi*37+3)%n]
		for _, lambda := range []float64{0, 0.3, 0.5, 1} {
			for _, k := range []int{1, 10, n + 1} {
				want := sc.Search(&q, k, lambda, nil)
				identicalResults(t, "parent-written file vs scan", want, loaded.Search(&q, k, lambda, nil))
				identicalResults(t, "re-saved file vs scan", want, again.Search(&q, k, lambda, nil))
				identicalResults(t, "re-saved file approx", loaded.SearchApprox(&q, k, lambda, nil), again.SearchApprox(&q, k, lambda, nil))
			}
		}
	}
}

// Load recomputes every member's distances from the arenas: a file whose
// stored Ds and Dt are damaged — here zeroed or halved for every third
// member, thresholds that would no longer bound Lemma 4.5's cut — loads to
// the index the undamaged file gives, element for element, and answers
// exactly.
func TestLoadIgnoresStoredMemberDistances(t *testing.T) {
	f := build(t, dataset.TwitterLike, 800, Config{Seed: 87})
	for i := 0; i < 40; i++ {
		if err := f.idx.Delete(f.ds.Objects[i*11].ID); err != nil {
			t.Fatal(err)
		}
	}
	saved := saveBytes(t, f.idx)
	var g gobIndex
	if err := gob.NewDecoder(bytes.NewReader(saved)).Decode(&g); err != nil {
		t.Fatal(err)
	}
	damaged := 0
	for ci := range g.Clusters {
		for mi := range g.Clusters[ci].Members {
			if m := &g.Clusters[ci].Members[mi]; (ci+mi)%3 == 0 {
				m.Ds, m.Dt = m.Ds/2, 0
				damaged++
			}
		}
	}
	if damaged == 0 {
		t.Fatal("no member distance damaged")
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&g); err != nil {
		t.Fatal(err)
	}
	loaded := loadBytes(t, buf.Bytes())
	if err := loaded.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	clean := loadBytes(t, saved)
	for ci, c := range loaded.clusters {
		if !stateOf(c).equal(stateOf(clean.clusters[ci])) {
			t.Fatalf("cluster %d differs from the one the undamaged file loads", ci)
		}
	}
	sc, live := liveSet(loaded)
	for qi := 0; qi < 10; qi++ {
		q := live.Objects[(qi*67+5)%live.Len()]
		q.X = clamp01(q.X + 0.011)
		for _, lambda := range []float64{0, 0.3, 0.7, 1} {
			for _, k := range []int{1, 10, 50} {
				identicalResults(t, "damaged file vs scan", sc.Search(&q, k, lambda, nil), loaded.Search(&q, k, lambda, nil))
			}
		}
	}
}
