package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/metric"
	"repro/internal/pca"
	"repro/internal/scan"
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

// Version 4 is the oldest format Load reads: a file of versions 1–3 or of
// a future one is refused with an error that says so.
func TestLoadRejectsUnknownVersion(t *testing.T) {
	img := loadImage(t)
	for _, v := range []int{1, 2, 3, 99} {
		_, err := damagedLoad(t, img, loadDamage{"Version", 0, v})
		if err == nil || !strings.Contains(err.Error(), "oldest readable version is 4") {
			t.Fatalf("version %d: Load returned %v, want an error naming version 4 as the oldest readable", v, err)
		}
	}
}

// A loaded index is derived from the file's base state alone, and is the
// index the paper's proofs assume: from a fresh build, a build after
// deletes and the two written states, it is clean under
// CheckInvariants and answers as the linear scan does, ID for ID
// (TestLoadParentWrittenFile holds a file older code wrote to the same).
func TestLoadedIndexExact(t *testing.T) {
	deletes := build(t, dataset.TwitterLike, 500, Config{Seed: 88})
	for i := 0; i < 50; i++ {
		if err := deletes.idx.Delete(deletes.ds.Objects[i*9].ID); err != nil {
			t.Fatal(err)
		}
	}
	states, _ := writtenStates(t)
	for _, c := range []struct {
		name string
		img  []byte
	}{
		{"fresh", saveBytes(t, build(t, dataset.YelpLike, 500, Config{Seed: 88}).idx)},
		{"deletes", saveBytes(t, deletes.idx)},
		{"bare", saveBytes(t, states["bare"])},
		{"compacted", saveBytes(t, states["compacted"])},
	} {
		t.Run(c.name, func(t *testing.T) {
			x := loadBytes(t, c.img)
			if err := x.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			sc, live := liveSet(x)
			n := live.Len()
			for qi := 0; qi < 6; qi++ {
				q := live.Objects[(qi*53+1)%n]
				q.X = clamp01(q.X + 0.017)
				for _, lambda := range []float64{0, 0.5, 1} {
					for _, k := range []int{1, 10, n + 1} {
						identicalResults(t, c.name, sc.Search(&q, k, lambda, nil), x.Search(&q, k, lambda, nil))
					}
				}
			}
		})
	}
}

// A loadDamage is one damage to a decoded image: field names a
// loadFields entry, pos picks the element where the field has several,
// and val is the change — a length delta, a new index or a new value.
type loadDamage struct {
	field    string
	pos, val int
}

// loadFields lists the damages FuzzLoad and the table tests apply, each
// to one field of a decoded image. The base state's values damaged here
// are those Load either checks or may accept: lengths, indices, flags,
// coordinates, spatial centroids, radii and normalizers. A vector against
// its projection or a centroid against its projected twin is
// CheckInvariants' to check, not Load's.
var loadFields = []struct {
	name  string
	apply func(g *legacyIndex, pos, val int)
}{
	// Lengths: val is the change in length.
	{"len Objects", func(g *legacyIndex, _, v int) { g.Objects = resize(g.Objects, v) }},
	{"len Deleted", func(g *legacyIndex, _, v int) { g.Deleted = resize(g.Deleted, v) }},
	{"len VecArena", func(g *legacyIndex, _, v int) { g.VecArena = resize(g.VecArena, v) }},
	{"len ProjArena", func(g *legacyIndex, _, v int) { g.ProjArena = resize(g.ProjArena, v) }},
	{"len SCentX", func(g *legacyIndex, _, v int) { g.SCentX = resize(g.SCentX, v) }},
	{"len SCentY", func(g *legacyIndex, _, v int) { g.SCentY = resize(g.SCentY, v) }},
	{"len SRad", func(g *legacyIndex, _, v int) { g.SRad = resize(g.SRad, v) }},
	{"len TCent", func(g *legacyIndex, _, v int) { g.TCent = resize(g.TCent, v) }},
	{"len TRad", func(g *legacyIndex, _, v int) { g.TRad = resize(g.TRad, v) }},
	{"len TCentProj", func(g *legacyIndex, _, v int) { g.TCentProj = resize(g.TCentProj, v) }},
	{"len TRadProj", func(g *legacyIndex, _, v int) { g.TRadProj = resize(g.TRadProj, v) }},
	{"len TValid", func(g *legacyIndex, _, v int) { g.TValid = resize(g.TValid, v) }},
	{"len TCent row", func(g *legacyIndex, p, v int) {
		if t, ok := pick(len(g.TCent), p); ok {
			g.TCent[t] = resize(g.TCent[t], v)
		}
	}},
	{"len TCentProj row", func(g *legacyIndex, p, v int) {
		if t, ok := pick(len(g.TCentProj), p); ok {
			g.TCentProj[t] = resize(g.TCentProj[t], v)
		}
	}},
	{"len SAssign", func(g *legacyIndex, _, v int) { g.SAssign = resize(g.SAssign, v) }},
	{"len TAssign", func(g *legacyIndex, _, v int) { g.TAssign = resize(g.TAssign, v) }},
	{"len PCA mean", func(g *legacyIndex, _, v int) {
		if g.PCAModel != nil {
			g.PCAModel.Mean = resize(g.PCAModel.Mean, v)
		}
	}},
	{"len PCA components", func(g *legacyIndex, _, v int) {
		if g.PCAModel != nil && g.PCAModel.Components != nil {
			g.PCAModel.Components.Data = resize(g.PCAModel.Components.Data, v)
		}
	}},
	{"PCA model nil", func(g *legacyIndex, _, _ int) { g.PCAModel = nil }},
	// Indices: val is the new index.
	{"SAssign", func(g *legacyIndex, p, v int) {
		if i, ok := pick(len(g.SAssign), p); ok {
			g.SAssign[i] = v
		}
	}},
	{"TAssign", func(g *legacyIndex, p, v int) {
		if i, ok := pick(len(g.TAssign), p); ok {
			g.TAssign[i] = v
		}
	}},
	{"Dim", func(g *legacyIndex, _, v int) { g.Dim = v }},
	{"M", func(g *legacyIndex, _, v int) { g.M = v }},
	{"Version", func(g *legacyIndex, _, v int) { g.Version = v }},
	{"PCA rows", func(g *legacyIndex, _, v int) {
		if g.PCAModel != nil && g.PCAModel.Components != nil {
			g.PCAModel.Components.Rows = v
		}
	}},
	{"PCA cols", func(g *legacyIndex, _, v int) {
		if g.PCAModel != nil && g.PCAModel.Components != nil {
			g.PCAModel.Components.Cols = v
		}
	}},
	// Values: val is the new value, in thousandths for a float
	// (math.MinInt16 stands for NaN).
	{"Deleted", func(g *legacyIndex, p, _ int) {
		if i, ok := pick(len(g.Deleted), p); ok {
			g.Deleted[i] = !g.Deleted[i]
		}
	}},
	{"ID", func(g *legacyIndex, p, v int) {
		if i, ok := pick(len(g.Objects), p); ok {
			g.Objects[i].ID = uint32(v)
		}
	}},
	{"X", func(g *legacyIndex, p, v int) {
		if i, ok := pick(len(g.Objects), p); ok {
			g.Objects[i].X = milli(v)
		}
	}},
	{"SCentX", func(g *legacyIndex, p, v int) {
		if i, ok := pick(len(g.SCentX), p); ok {
			g.SCentX[i] = milli(v)
		}
	}},
	{"SRad", func(g *legacyIndex, p, v int) {
		if i, ok := pick(len(g.SRad), p); ok {
			g.SRad[i] = milli(v)
		}
	}},
	{"TRad", func(g *legacyIndex, p, v int) {
		if i, ok := pick(len(g.TRad), p); ok {
			g.TRad[i] = milli(v)
		}
	}},
	{"TRadProj", func(g *legacyIndex, p, v int) {
		if i, ok := pick(len(g.TRadProj), p); ok {
			g.TRadProj[i] = milli(v)
		}
	}},
	{"DsMax", func(g *legacyIndex, _, v int) { g.DsMax = milli(v) }},
	{"DtMax", func(g *legacyIndex, _, v int) { g.DtMax = milli(v) }},
	{"Workers", func(g *legacyIndex, _, v int) { g.Cfg.Workers = v }},
	{"Seed", func(g *legacyIndex, _, v int) { g.Cfg.Seed = uint64(v) }},
	// Derived fields, which Load does not read.
	{"Live", func(g *legacyIndex, _, v int) { g.Live += v }},
	{"len Clusters", func(g *legacyIndex, _, v int) { g.Clusters = resize(g.Clusters, v) }},
	{"len cluster members", func(g *legacyIndex, p, v int) {
		if i, ok := pick(len(g.Clusters), p); ok {
			g.Clusters[i].Members = resize(g.Clusters[i].Members, v)
		}
	}},
	{"cluster S", func(g *legacyIndex, p, v int) {
		if i, ok := pick(len(g.Clusters), p); ok {
			g.Clusters[i].S = v
		}
	}},
	{"cluster T", func(g *legacyIndex, p, v int) {
		if i, ok := pick(len(g.Clusters), p); ok {
			g.Clusters[i].T = v
		}
	}},
	{"cluster pair copied", func(g *legacyIndex, p, v int) {
		i, ok1 := pick(len(g.Clusters), p)
		j, ok2 := pick(len(g.Clusters), p+v)
		if ok1 && ok2 {
			g.Clusters[j].S, g.Clusters[j].T = g.Clusters[i].S, g.Clusters[i].T
		}
	}},
	{"member Idx", func(g *legacyIndex, p, v int) {
		if i, ok := pick(len(g.Clusters), p); ok && len(g.Clusters[i].Members) > 0 {
			g.Clusters[i].Members[0].Idx = uint32(v)
		}
	}},
	{"member moved", func(g *legacyIndex, p, v int) {
		i, ok1 := pick(len(g.Clusters), p)
		j, ok2 := pick(len(g.Clusters), p+v)
		if ok1 && ok2 && len(g.Clusters[i].Members) > 0 && len(g.Clusters[j].Members) > 0 {
			g.Clusters[i].Members[0].Idx = g.Clusters[j].Members[0].Idx
		}
	}},
	{"member distances", func(g *legacyIndex, p, _ int) {
		for ci := range g.Clusters {
			for mi := range g.Clusters[ci].Members {
				if m := &g.Clusters[ci].Members[mi]; (ci+mi+p)%3 == 0 {
					m.Ds, m.Dt = m.Ds/2, 0
				}
			}
		}
	}},
	{"side lists", func(g *legacyIndex, p, v int) {
		if s, ok := pick(len(g.SMembers), p); ok {
			g.SMembers[s] = nil
		}
		if t, ok := pick(len(g.TMembers), p); ok {
			g.TMembers[t] = append(g.TMembers[t], uint32(v))
		}
	}},
}

// loadField returns the position of the named damage in loadFields.
func loadField(name string) int {
	for i, f := range loadFields {
		if f.name == name {
			return i
		}
	}
	panic("no load damage " + name)
}

// resize lengthens s by delta zero values, or shortens it, to no less
// than empty.
func resize[T any](s []T, delta int) []T {
	if delta < 0 {
		return s[:max(0, len(s)+delta)]
	}
	return append(s, make([]T, delta)...)
}

// pick maps pos onto one of n elements; false when there are none.
func pick(n, pos int) (int, bool) {
	if n == 0 {
		return 0, false
	}
	return (pos%n + n) % n, true
}

// milli reads v as thousandths, with math.MinInt16 standing for NaN.
func milli(v int) float64 {
	if v == math.MinInt16 {
		return math.NaN()
	}
	return float64(v) / 1000
}

// damagedLoad decodes img, applies d, re-encodes and loads the result.
func damagedLoad(t testing.TB, img []byte, d loadDamage) (*Index, error) {
	t.Helper()
	g := decodeLegacy(t, img)
	loadFields[loadField(d.field)].apply(g, d.pos, d.val)
	x, _, err := Load(bytes.NewReader(g.encode(t)))
	return x, err
}

// legacyIndex mirrors the gobIndex of the last code that saved derived
// sections beside the base state — a live count, the side member lists
// and the hybrid clusters with their member distances — so that a test
// can write the files that code wrote. gob matches fields by name, so
// Load reads such a file as it reads any other, and a file this code
// saves decodes into it with the derived sections empty.
type legacyIndex struct {
	Version                 int
	Cfg                     Config
	DsMax, DtMax, DtProjMax float64
	SemanticKind            metric.SemanticMetric
	Objects                 []dataset.Object
	Deleted                 []bool
	Live                    int
	PCAModel                *pca.Model
	Dim, M                  int
	VecArena, ProjArena     []float32
	Proj                    [][]float32
	SCentX, SCentY, SRad    []float64
	SMembers                [][]uint32
	TCent                   [][]float32
	TRad                    []float64
	TCentProj               [][]float32
	TRadProj                []float64
	TMembers                [][]uint32
	TValid                  []bool
	SAssign, TAssign        []int
	Clusters                []legacyHybrid
	UpdatesSinceBuild_      int
}

type legacyHybrid struct {
	S, T    int
	Members []legacyMember
}

type legacyMember struct {
	Idx    uint32
	Ds, Dt float64
}

func decodeLegacy(t testing.TB, img []byte) *legacyIndex {
	t.Helper()
	var g legacyIndex
	if err := gob.NewDecoder(bytes.NewReader(img)).Decode(&g); err != nil {
		t.Fatal(err)
	}
	return &g
}

func (g *legacyIndex) encode(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// legacyOf is what that code saved of x after deleting in place the
// rows gone names: every row, those flagged deleted, and derived
// sections over the others — the side lists in storage order, the
// clusters in directory order with their members in array order. x must
// be flat, so that its storage positions are the saved rows.
func legacyOf(t testing.TB, x *Index, gone func(row int) bool) *legacyIndex {
	t.Helper()
	if x.delta != nil {
		t.Fatal("legacyOf needs a flat index")
	}
	g := decodeLegacy(t, saveBytes(t, x))
	g.SMembers, g.TMembers = make([][]uint32, len(g.SCentX)), make([][]uint32, len(g.TCent))
	for i := range g.Objects {
		if g.Deleted[i] = gone(i); !g.Deleted[i] {
			g.Live++
			g.SMembers[g.SAssign[i]] = append(g.SMembers[g.SAssign[i]], uint32(i))
			g.TMembers[g.TAssign[i]] = append(g.TMembers[g.TAssign[i]], uint32(i))
		}
	}
	for _, c := range x.clusters {
		lc := legacyHybrid{S: c.s, T: c.t}
		for _, e := range c.elems {
			if !g.Deleted[e.idx] {
				lc.Members = append(lc.Members, legacyMember{e.idx, x.spatialToCent(e.idx, c.s), x.semanticToCent(e.idx, c.t)})
			}
		}
		g.Clusters = append(g.Clusters, lc)
	}
	return g
}

// loadImage writes the small file the damage tests start from, as older
// code saved it after deleting in place: 24 objects of dim 4 on a 4×4
// side grid, three of them flagged deleted, with the derived sections,
// under 5 KB.
func loadImage(t testing.TB) []byte {
	t.Helper()
	ds, err := dataset.Generate(dataset.GenConfig{Kind: dataset.TwitterLike, Size: 24, Dim: 4, Seed: 51})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := metric.NewSpace(ds)
	if err != nil {
		t.Fatal(err)
	}
	x, err := Build(ds, sp, Config{Seed: 90})
	if err != nil {
		t.Fatal(err)
	}
	if ks, kt := len(x.sCentX), len(x.tCent); ks != 4 || kt != 4 {
		t.Fatalf("image has %d×%d side clusters, want 4×4", ks, kt)
	}
	img := legacyOf(t, x, func(row int) bool { return row%7 == 2 && row < 21 }).encode(t)
	if len(img) > 5<<10 {
		t.Fatalf("image is %d B, want at most 5 KB", len(img))
	}
	return img
}

// baseStateDamages are damaged base states Load must refuse. Unchecked,
// each would panic in Load, on one of its worker goroutines (which no
// caller can recover) or in the first search, or load an index whose
// radii do not bound its members.
var baseStateDamages = []struct {
	name string
	d    loadDamage
}{
	{"SRad one short", loadDamage{"len SRad", 0, -1}},
	{"TRad one short", loadDamage{"len TRad", 0, -1}},
	{"TCentProj one short", loadDamage{"len TCentProj", 0, -1}},
	{"SCentY one short", loadDamage{"len SCentY", 0, -1}},
	{"TCent row one short", loadDamage{"len TCent row", 1, -1}},
	{"TCentProj row one long", loadDamage{"len TCentProj row", 2, 1}},
	{"TRadProj one long", loadDamage{"len TRadProj", 0, 1}},
	{"TValid missing", loadDamage{"len TValid", 0, -4}},
	{"PCA model nil", loadDamage{"PCA model nil", 0, 0}},
	{"PCA model of another dim", loadDamage{"PCA cols", 0, 5}},
	{"PCA mean one short", loadDamage{"len PCA mean", 0, -1}},
	{"Deleted one long", loadDamage{"len Deleted", 0, 1}},
	{"Deleted one short", loadDamage{"len Deleted", 0, -1}},
	{"vector arena one short", loadDamage{"len VecArena", 0, -1}},
	{"negative DsMax", loadDamage{"DsMax", 0, -1000}},
	{"spatial radius shrunk to zero", loadDamage{"SRad", 1, 0}},
	{"NaN coordinate", loadDamage{"X", 30, math.MinInt16}},
	{"spatial assignment out of range", loadDamage{"SAssign", 3, 4}},
	{"semantic assignment out of range", loadDamage{"TAssign", 3, -2}},
	{"assignments one row short", loadDamage{"len SAssign", 0, -1}},
}

// A damaged base state fails Load with an error, before anything is
// derived from it.
func TestLoadRejectsDamagedBaseState(t *testing.T) {
	img := loadImage(t)
	if _, err := damagedLoad(t, img, loadDamage{"Workers", 0, 0}); err != nil {
		t.Fatalf("undamaged image: %v", err)
	}
	for _, c := range baseStateDamages {
		t.Run(c.name, func(t *testing.T) {
			if _, err := damagedLoad(t, img, c.d); err == nil {
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

// derivedDamages damage fields only older code saved, which Load does
// not read: the stored member distances, the cluster directory and
// member lists, the side lists and the live count.
var derivedDamages = []struct {
	name string
	d    loadDamage
}{
	{"member distances", loadDamage{"member distances", 0, 0}},
	{"cluster side out of range", loadDamage{"cluster S", 0, 1000}},
	{"negative cluster side", loadDamage{"cluster T", 0, -1}},
	{"two clusters naming one pair", loadDamage{"cluster pair copied", 0, 1}},
	{"member position out of range", loadDamage{"member Idx", 0, 30000}},
	{"member listed by the wrong cluster", loadDamage{"member moved", 0, 1}},
	{"clusters dropped", loadDamage{"len Clusters", 0, math.MinInt16}},
	{"side lists", loadDamage{"side lists", 2, 7}},
	{"live count", loadDamage{"Live", 0, 50}},
}

// Load reads no derived field: a file older code saved, with 40 rows
// flagged deleted, whose member distances, cluster directory, member
// lists, side lists or live count are damaged loads to the index the
// undamaged file gives, cluster for cluster, and answers exactly. A
// stored Dt read back would be a Lemma 4.5 threshold no recomputation
// vouches for.
func TestLoadIgnoresDerivedFields(t *testing.T) {
	f := build(t, dataset.TwitterLike, 800, Config{Seed: 87})
	saved := legacyOf(t, f.idx, func(row int) bool { return row%11 == 0 && row < 440 }).encode(t)
	clean := loadBytes(t, saved)
	if clean.Len() != 760 || clean.rows() != 760 {
		t.Fatalf("the undamaged file loads %d live objects in %d rows, want 760 in 760", clean.Len(), clean.rows())
	}
	for _, c := range derivedDamages {
		t.Run(c.name, func(t *testing.T) {
			loaded, err := damagedLoad(t, saved, c.d)
			if err != nil {
				t.Fatal(err)
			}
			if err := loaded.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if loaded.Len() != clean.Len() || len(loaded.clusters) != len(clean.clusters) {
				t.Fatalf("%d live objects in %d clusters, the undamaged file loads %d in %d",
					loaded.Len(), len(loaded.clusters), clean.Len(), len(clean.clusters))
			}
			for ci, lc := range loaded.clusters {
				cc := clean.clusters[ci]
				if lc.s != cc.s || lc.t != cc.t || !slices.Equal(lc.elems, cc.elems) {
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
		})
	}
}

// FuzzLoad damages one field of a small saved image — a length, an index
// or a value, picked by the fuzzer — and loads it: Load returns an error,
// or an index that is clean under CheckInvariants and answers a query as
// the linear scan does. It never panics. The damage is structured because
// random byte flips almost never get past gob's decoder.
func FuzzLoad(f *testing.F) {
	img := loadImage(f)
	for _, rows := range [][]struct {
		name string
		d    loadDamage
	}{baseStateDamages, derivedDamages} {
		for _, c := range rows {
			f.Add(uint8(loadField(c.d.field)), uint16(c.d.pos), int16(c.d.val))
		}
	}
	g := decodeLegacy(f, img)
	q := g.Objects[1]
	q.X, q.Vec = clamp01(q.X+0.02), g.VecArena[g.Dim:2*g.Dim]
	f.Fuzz(func(t *testing.T, field uint8, pos uint16, val int16) {
		d := loadDamage{loadFields[int(field)%len(loadFields)].name, int(pos), int(val)}
		x, err := damagedLoad(t, img, d)
		if err != nil {
			return
		}
		if err := x.CheckInvariants(); err != nil {
			t.Fatalf("%+v: Load accepted an index CheckInvariants refuses: %v", d, err)
		}
		sc, _ := liveSet(x)
		for _, lambda := range []float64{0, 0.5, 1} {
			identicalResults(t, fmt.Sprintf("%+v", d), sc.Search(&q, 10, lambda, nil), x.Search(&q, 10, lambda, nil))
		}
	})
}

// A file older code saved after deleting and re-inserting in place holds
// the deleted rows, flagged, and one of them carries the ID that a live
// row holds now. Load drops the flagged rows, so that every row it keeps
// is live: the ID names the live row, and the index is clean and answers
// as a linear scan over the unflagged rows.
func TestLoadDropsDeletedSlots(t *testing.T) {
	f := build(t, dataset.TwitterLike, 400, Config{Seed: 89})
	x := f.idx
	gone := map[int]bool{5: true, 77: true, 300: true}
	g := legacyOf(t, x, func(row int) bool { return gone[row] })
	const reused, holder = 77, 200
	g.Objects[reused].ID = g.Objects[holder].ID
	var kept []dataset.Object
	for i := range x.rows() {
		if !gone[i] {
			kept = append(kept, x.row(uint32(i)))
		}
	}
	loaded := loadBytes(t, g.encode(t))
	if loaded.Len() != len(kept) || loaded.rows() != loaded.Len() {
		t.Fatalf("loaded %d live objects in %d rows, want %d in as many", loaded.Len(), loaded.rows(), len(kept))
	}
	if err := loaded.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if o, ok := loaded.Object(x.ids[holder]); !ok || o.X != x.xArena[holder] || o.Y != x.yArena[holder] {
		t.Fatalf("ID %d loads as %+v (found %v), want the live row's object", x.ids[holder], o, ok)
	}
	for i := range gone {
		if _, ok := loaded.Object(x.ids[i]); ok {
			t.Fatalf("the object of flagged row %d loaded", i)
		}
	}
	sc := scan.New(&dataset.Dataset{Objects: kept, Dim: x.dim}, x.space)
	for qi := 0; qi < 8; qi++ {
		q := kept[(qi*47+3)%len(kept)]
		q.X = clamp01(q.X + 0.013)
		for _, lambda := range []float64{0, 0.5, 1} {
			for _, k := range []int{1, 10, len(kept) + 1} {
				identicalResults(t, "flagged rows dropped", sc.Search(&q, k, lambda, nil), loaded.Search(&q, k, lambda, nil))
			}
		}
	}
}
