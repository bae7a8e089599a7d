package core

import (
	"bytes"
	"encoding/gob"
	"testing"

	"repro/internal/dataset"
)

// A version-3 file carries the SQ8 arena verbatim: the loaded index
// must hold byte-identical codes and residuals (no retraining), and
// answer quantized queries exactly as the original.
func TestSaveLoadPreservesQuantArena(t *testing.T) {
	f := build(t, dataset.TwitterLike, 500, Config{Seed: 85})
	if f.idx.quant == nil {
		t.Fatal("fixture index has no quant arena")
	}
	var buf bytes.Buffer
	if err := f.idx.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, _, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.quant == nil {
		t.Fatal("loaded index lost its quant arena")
	}
	if !bytes.Equal(loaded.quant.codes, f.idx.quant.codes) {
		t.Fatal("quant codes not restored verbatim")
	}
	for i, r := range f.idx.quant.resid {
		if loaded.quant.resid[i] != r {
			t.Fatalf("residual %d: loaded %v, saved %v", i, loaded.quant.resid[i], r)
		}
	}
	for i := range f.idx.quant.cb.Lo {
		if loaded.quant.cb.Lo[i] != f.idx.quant.cb.Lo[i] || loaded.quant.cb.Step[i] != f.idx.quant.cb.Step[i] {
			t.Fatalf("codebook dim %d not restored verbatim", i)
		}
	}
	if err := loaded.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for qi := 0; qi < 5; qi++ {
		q := f.ds.Objects[(qi*83+3)%f.ds.Len()]
		for _, lambda := range []float64{0.2, 0.5} {
			for _, opts := range []SearchOptions{
				{},
				{Quant: QuantOff},
				{Approx: true, Quant: QuantOnly},
			} {
				a := f.idx.SearchOptionsInto(nil, &q, 10, lambda, opts, nil)
				b := loaded.SearchOptionsInto(nil, &q, 10, lambda, opts, nil)
				sameResults(t, "loaded quant", a, b)
			}
		}
	}
}

// saveAsV2 re-encodes a current save in the version-2 layout — arenas
// but no quant fields — exactly what the pre-quant Save wrote (gob
// omits the zeroed fields from the stream just as it omitted the
// then-nonexistent ones).
func saveAsV2(t *testing.T, x *Index) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	if err := x.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var g gobIndex
	if err := gob.NewDecoder(&buf).Decode(&g); err != nil {
		t.Fatal(err)
	}
	g.Version = persistVersionV2
	g.QuantLo, g.QuantStep, g.QuantCodes, g.QuantResid = nil, nil, nil, nil
	var v2 bytes.Buffer
	if err := gob.NewEncoder(&v2).Encode(&g); err != nil {
		t.Fatal(err)
	}
	return &v2
}

// Loading a version-2 file retrains the SQ8 arena transparently, and
// the retrained index answers exact queries identically to the
// original (exactness never depends on the codebook).
func TestLoadV2RetrainsQuant(t *testing.T) {
	f := build(t, dataset.TwitterLike, 400, Config{Seed: 86})
	loaded, _, err := Load(saveAsV2(t, f.idx))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.quant == nil {
		t.Fatal("v2 load did not retrain the quant arena")
	}
	if err := loaded.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for qi := 0; qi < 5; qi++ {
		q := f.ds.Objects[(qi*71+5)%f.ds.Len()]
		for _, lambda := range []float64{0.3, 0.7} {
			a := f.idx.Search(&q, 10, lambda, nil)
			b := loaded.Search(&q, 10, lambda, nil)
			sameResults(t, "v2 exact", a, b)
		}
	}
}

// A v1 file (no arenas at all) also gains a quant arena on load.
func TestLoadV1RetrainsQuant(t *testing.T) {
	f := build(t, dataset.TwitterLike, 300, Config{Seed: 87})
	loaded, _, err := Load(saveAsV1(t, f.idx))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.quant == nil {
		t.Fatal("v1 load did not retrain the quant arena")
	}
	if err := loaded.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// DisableQuant round-trips: the saved file carries no quant fields and
// the loaded index keeps quantization off.
func TestSaveLoadDisabledQuant(t *testing.T) {
	f := build(t, dataset.TwitterLike, 300, Config{Seed: 88, DisableQuant: true})
	if f.idx.quant != nil {
		t.Fatal("DisableQuant index built a quant arena")
	}
	var buf bytes.Buffer
	if err := f.idx.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, _, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.quant != nil {
		t.Fatal("DisableQuant not honored across save/load")
	}
	if err := loaded.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	q := f.ds.Objects[7]
	sameResults(t, "disabled quant", f.idx.Search(&q, 10, 0.5, nil), loaded.Search(&q, 10, 0.5, nil))
}

// Corrupt quant arenas are rejected, not silently mis-sliced.
func TestLoadRejectsCorruptQuantArena(t *testing.T) {
	f := build(t, dataset.TwitterLike, 200, Config{Seed: 89})
	var buf bytes.Buffer
	if err := f.idx.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var g gobIndex
	if err := gob.NewDecoder(&buf).Decode(&g); err != nil {
		t.Fatal(err)
	}
	g.QuantResid = g.QuantResid[:len(g.QuantResid)-1]
	var out bytes.Buffer
	if err := gob.NewEncoder(&out).Encode(&g); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Load(&out); err == nil {
		t.Fatal("expected error for truncated quant residual arena")
	}
}

// A file whose cluster directory is damaged fails Load; before the grid
// existed such a file loaded and panicked in the first search.
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
