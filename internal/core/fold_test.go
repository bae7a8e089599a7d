package core

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/metric"
	"repro/internal/obs"
	"repro/internal/scan"
)

// foldParts is one corpus split by ID over P indexes, a shard's shape:
// one metric space and, above one part, one anchor set fitted over the
// whole corpus. Each part carries an overlay clone and an independent
// Save/Load copy writing its own overlay, the two fed the same ops; live
// tracks the objects the ops leave.
type foldParts struct {
	over, twins []*Index
	live        map[uint32]dataset.Object
}

func newFoldParts(t *testing.T, ds *dataset.Dataset, p int) *foldParts {
	t.Helper()
	sp, err := metric.NewSpace(ds)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Seed: 401}
	var set *Anchors
	if p > 1 {
		set = FitAnchors(ds, sp, cfg)
	}
	f := &foldParts{live: map[uint32]dataset.Object{}}
	for i := 0; i < p; i++ {
		part := &dataset.Dataset{Dim: ds.Dim}
		for _, o := range ds.Objects {
			if int(o.ID)%p == i {
				part.Objects = append(part.Objects, o)
				f.live[o.ID] = o
			}
		}
		partSpace := *sp
		x, err := BuildWithAnchors(part, &partSpace, cfg, set)
		if err != nil {
			t.Fatal(err)
		}
		f.over = append(f.over, cloneHeader(x))
		f.twins = append(f.twins, saveLoad(t, x))
	}
	return f
}

// apply runs op on both copies of the part holding id.
func (f *foldParts) apply(t *testing.T, id uint32, op func(x *Index) error) {
	t.Helper()
	i := int(id) % len(f.over)
	for _, x := range []*Index{f.over[i], f.twins[i]} {
		if err := op(x); err != nil {
			t.Fatal(err)
		}
	}
}

func (f *foldParts) insert(t *testing.T, o dataset.Object) {
	t.Helper()
	f.apply(t, o.ID, func(x *Index) error { return x.Insert(o) })
	f.live[o.ID] = o
}

func (f *foldParts) delete(t *testing.T, id uint32) {
	t.Helper()
	f.apply(t, id, func(x *Index) error { return x.Delete(id) })
	delete(f.live, id)
}

func (f *foldParts) update(t *testing.T, o dataset.Object) {
	t.Helper()
	f.apply(t, o.ID, func(x *Index) error { return x.Update(o) })
	f.live[o.ID] = o
}

// liveDataset returns the live objects in ID order.
func (f *foldParts) liveDataset(dim int) *dataset.Dataset {
	ds := &dataset.Dataset{Dim: dim}
	for _, o := range f.live {
		ds.Objects = append(ds.Objects, o)
	}
	slices.SortFunc(ds.Objects, func(a, b dataset.Object) int { return int(a.ID) - int(b.ID) })
	return ds
}

// TestCompactFold folds every kind of overlay on a bare index and on the
// parts of a corpus split over 2 and 4 indexes. A folded part must be
// what Build and Load leave: no overlay op, every row anchored,
// invariants clean, every cluster an arena window, every radius the max
// over its live rows, the drift state carried over, and Save → Load →
// Save the identity. The folded parts' exact answers must equal the
// linear scan of the live objects and the answers of the independent
// copies' overlays, rank by rank with ties by ID, at λ ∈ {0, 0.5, 1} and
// k ∈ {1, 10, n+5}, and counted reads over the overlay parts and the
// folded ones keep the pruning identity.
func TestCompactFold(t *testing.T) {
	ds, err := dataset.Generate(dataset.GenConfig{Kind: dataset.TwitterLike, Size: 1200, Dim: 32, Seed: 402})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := dataset.Generate(dataset.GenConfig{Kind: dataset.YelpLike, Size: 80, Dim: 32, Seed: 403})
	if err != nil {
		t.Fatal(err)
	}
	overlays := []struct {
		name  string
		write func(t *testing.T, f *foldParts)
	}{
		{"inserts", func(t *testing.T, f *foldParts) {
			for i, o := range pool.Objects[:60] {
				o.ID = uint32(1_000_000 + i)
				f.insert(t, o)
			}
		}},
		{"deletes", func(t *testing.T, f *foldParts) {
			for i := 0; i < ds.Len(); i += 5 {
				f.delete(t, ds.Objects[i].ID)
			}
		}},
		{"updates", func(t *testing.T, f *foldParts) {
			for i := 0; i < ds.Len(); i += 7 {
				o := ds.Objects[i]
				o.X, o.Vec = clamp01(o.X+0.05), pool.Objects[i%pool.Len()].Vec
				f.update(t, o)
			}
			for i, o := range pool.Objects[:10] {
				o.ID = uint32(1_000_000 + i)
				f.insert(t, o)
				if i%2 == 0 {
					o.Y = clamp01(o.Y - 0.1)
					f.update(t, o)
				}
			}
		}},
		{"refilled", func(t *testing.T, f *foldParts) {
			for _, o := range ds.Objects {
				f.delete(t, o.ID)
			}
			for _, o := range ds.Objects {
				o.X = clamp01(o.X + 0.01)
				f.insert(t, o)
			}
		}},
		{"no ops", func(*testing.T, *foldParts) {}},
		{"emptied side", func(t *testing.T, f *foldParts) {
			o := ds.Objects[3]
			x := f.over[int(o.ID)%len(f.over)]
			_, _, side, _ := x.nearestSides(o.X, o.Y, x.pcaModel.Transform(o.Vec))
			for i, cell := range x.cells {
				if _, tt := x.sides(cell); tt == side {
					f.delete(t, x.ids[i])
				}
			}
			o.ID += 1_000_000 // a multiple of every part count: o's part
			f.insert(t, o)
			folded, err := x.Compact()
			if err != nil {
				t.Fatal(err)
			}
			pos, _ := folded.idIdx.get(o.ID)
			onSide := 0
			for _, cell := range folded.cells {
				if _, tt := folded.sides(cell); tt == side {
					onSide++
				}
			}
			if _, tt := folded.sides(folded.cells[pos]); tt != side || onSide != 1 {
				t.Fatalf("the insert sits on semantic side %d with %d rows, want the emptied side %d alone", tt, onSide, side)
			}
		}},
	}
	for _, p := range []int{1, 2, 4} {
		for _, ov := range overlays {
			ctx := fmt.Sprintf("P=%d %s", p, ov.name)
			f := newFoldParts(t, ds, p)
			ov.write(t, f)
			folded := make([]*Index, p)
			for i, x := range f.over {
				if folded[i], err = x.Compact(); err != nil {
					t.Fatalf("%s: %v", ctx, err)
				}
				requireFolded(t, fmt.Sprintf("%s part %d", ctx, i), x, folded[i])
			}
			live := f.liveDataset(ds.Dim)
			sc := scan.New(live, f.over[0].space)
			n := live.Len()
			for qi := 0; qi < 6; qi++ {
				q := ds.Objects[(qi*173+29)%ds.Len()]
				q.Y = clamp01(q.Y + 0.007)
				for _, lambda := range []float64{0, 0.5, 1} {
					for _, k := range []int{1, 10, n + 5} {
						want := sc.Search(&q, k, lambda, nil)
						at := fmt.Sprintf("%s q%d λ=%v k=%d", ctx, qi, lambda, k)
						identicalResults(t, at+" folded", want, SearchShardsInto(nil, folded, &q, k, lambda, SearchOptions{}, nil, nil))
						identicalResults(t, at+" twins", want, SearchShardsInto(nil, f.twins, &q, k, lambda, SearchOptions{}, nil, nil))
					}
					requirePruningIdentity(t, ctx+" overlay", f.over, &q, 10, lambda)
					requirePruningIdentity(t, ctx+" folded", folded, &q, 10, lambda)
				}
			}
		}
	}
}

// requirePruningIdentity holds counted reads of q over the parts xs to
// the identity the counters are charged by: every live row is visited or
// pruned, once. It holds for one stream of counters, for the spans of a
// read that records them per part (offered to a helper as a striped
// read, and not), and, on one part, for the approximate read, whatever
// the parts' overlays hold.
func requirePruningIdentity(t testing.TB, ctx string, xs []*Index, q *dataset.Object, k int, lambda float64) {
	t.Helper()
	charged := func(st *metric.Stats) int64 { return st.VisitedObjects + st.InterPruned + st.IntraPruned }
	var live int64
	for _, x := range xs {
		live += int64(x.Len())
	}
	modes := []SearchOptions{{}}
	if len(xs) == 1 {
		modes = append(modes, SearchOptions{Approx: true})
	}
	for _, opts := range modes {
		var st metric.Stats
		SearchShardsInto(nil, xs, q, k, lambda, opts, nil, &st)
		if got := charged(&st); got != live {
			t.Fatalf("%s λ=%v approx=%v: counters charge %d rows of %d live (%+v)", ctx, lambda, opts.Approx, got, live, st)
		}
	}
	for _, striped := range []bool{false, true} {
		spans := make([]obs.ShardSpan, len(xs))
		SearchShardsInto(nil, xs, q, k, lambda, SearchOptions{Striped: striped}, spans, nil)
		for i, x := range xs {
			if got := charged(&spans[i].Stats.Stats); got != int64(x.Len()) {
				t.Fatalf("%s λ=%v striped=%v: span %d charges %d rows of %d live", ctx, lambda, striped, i, got, x.Len())
			}
		}
	}
}

// requireFolded holds the fold of over to what Build and Load leave.
func requireFolded(t *testing.T, ctx string, over, x *Index) {
	t.Helper()
	if x.DeltaOps() != 0 || x.UnanchoredRows() != 0 {
		t.Fatalf("%s: %d overlay ops and %d unanchored rows after the fold", ctx, x.DeltaOps(), x.UnanchoredRows())
	}
	requireClusterMajor(t, ctx, x)
	requireRadii(t, ctx, x)
	if x.Len() != over.Len() || x.rows() != x.Len() {
		t.Fatalf("%s: %d live of %d rows, the overlay held %d", ctx, x.Len(), x.rows(), over.Len())
	}
	if x.UpdatesSinceBuild != over.UpdatesSinceBuild || x.DriftRatio() != over.DriftRatio() ||
		!slices.Equal(x.builtSRad, over.builtSRad) || !slices.Equal(x.builtTRadProj, over.builtTRadProj) {
		t.Fatalf("%s: the drift state did not carry over", ctx)
	}
	first := saveBytes(t, x)
	if again := saveBytes(t, loadBytes(t, first)); !bytes.Equal(first, again) {
		t.Fatalf("%s: Save → Load → Save of the folded index changed the bytes", ctx)
	}
}
