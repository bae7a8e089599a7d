package core

import (
	"slices"
	"testing"

	"repro/internal/dataset"
)

// The invariant checker must actually detect corruption — each mutation
// below violates one checked property.
func TestCheckInvariantsDetectsCorruption(t *testing.T) {
	mutations := []struct {
		name   string
		mutate func(x *Index)
	}{
		{"shrunken spatial radius", func(x *Index) {
			x.sRad[x.clusters[0].s] = 0
		}},
		{"shrunken semantic radius", func(x *Index) {
			x.tRad[x.clusters[0].t] = 0
		}},
		{"shrunken projected radius", func(x *Index) {
			x.tRadProj[x.clusters[0].t] = 0
		}},
		{"corrupted member distance", func(x *Index) {
			// A threshold raised to its predecessor's stays monotone and
			// conservative; only the merge of the rows' lists tells.
			c := x.clusters[0]
			for j := 1; j < len(c.elems); j++ {
				if c.elems[j].dt < c.elems[j-1].dt {
					c.elems[j].dt = c.elems[j-1].dt
					return
				}
			}
		}},
		{"L_s out of order", func(x *Index) {
			// The array's first two rows trade places in L_s.
			b := x.clusters[0].base
			x.xArena[b], x.xArena[b+1] = x.xArena[b+1], x.xArena[b]
			x.yArena[b], x.yArena[b+1] = x.yArena[b+1], x.yArena[b]
		}},
		{"non-conservative threshold", func(x *Index) {
			c := x.clusters[0]
			c.elems[len(c.elems)-1].ds = 0
			c.elems[len(c.elems)-1].dt = 0
		}},
		{"non-monotonic thresholds", func(x *Index) {
			c := x.clusters[0]
			if len(c.elems) < 2 {
				t.Skip("cluster too small")
			}
			c.elems[len(c.elems)-1].ds = c.elems[0].ds + 0.5
		}},
		{"duplicated element", func(x *Index) {
			c := x.clusters[0]
			c.elems[len(c.elems)-1] = c.elems[0]
		}},
		{"wrong live count", func(x *Index) {
			x.live--
		}},
		{"stale coordinate arena", func(x *Index) {
			x.xArena[x.clusters[0].elems[0].idx] += 0.25
		}},
		{"anchor id past the anchor set", func(x *Index) {
			x.anchors.id[0] = uint8(len(x.anchors.set.pts))
		}},
		{"stale anchor distance", func(x *Index) {
			x.anchors.dist[0] += 0.25
		}},
		{"sentinel anchor row with a distance", func(x *Index) {
			x.anchors.id[0], x.anchors.dist[0] = anchorSentinel, 0.1
		}},
		{"anchor arena one row short", func(x *Index) {
			x.anchors.id = x.anchors.id[:len(x.anchors.id)-1]
		}},
		{"cluster base off its first element", func(x *Index) {
			x.clusters[0].base++
		}},
		{"sentinel anchor row under an anchor set", func(x *Index) {
			x.anchors.id[0], x.anchors.dist[0] = anchorSentinel, 0
		}},
		{"arena window over a reordered cluster", func(x *Index) {
			c := x.clusters[0]
			last := len(c.elems) - 1
			c.elems[0].idx, c.elems[last].idx = c.elems[last].idx, c.elems[0].idx
		}},
		{"cluster missing from its grid cell", func(x *Index) {
			c := x.clusters[0]
			x.grid[x.cell(c.s, c.t)] = nil
		}},
		{"two clusters in each other's grid cells", func(x *Index) {
			a, b := x.clusters[0], x.clusters[1]
			x.grid[x.cell(a.s, a.t)], x.grid[x.cell(b.s, b.t)] = b, a
		}},
		{"grid cell naming an unlisted cluster", func(x *Index) {
			// checkGrid runs before the membership checks that would also
			// notice the missing objects.
			x.clusters = x.clusters[1:]
		}},
		{"truncated grid", func(x *Index) {
			x.grid = x.grid[:len(x.grid)-1]
		}},
		{"stale head threshold", func(x *Index) {
			// A head below elems[0]'s would cut clusters that hold results.
			x.clusters[0].headDt /= 2
		}},
		{"ID column disagreeing with the ID table", func(x *Index) {
			x.ids[0] = 4_000_000
		}},
		{"ID table missing a live row", func(x *Index) {
			b, i, _ := x.idIdx.find(x.ids[0])
			x.idIdx.buckets[idBucket(x.ids[0])] = slices.Delete(b, i, i+1)
		}},
		{"text column one row short", func(x *Index) {
			x.texts = x.texts[:len(x.texts)-1]
		}},
		{"assignment outside the side clusters", func(x *Index) {
			x.cells[0] = uint32(len(x.grid))
		}},
		{"row's cell naming another cluster", func(x *Index) {
			x.cells[x.clusters[0].elems[0].idx] = uint32(x.cell(x.clusters[1].s, x.clusters[1].t))
		}},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			f := build(t, dataset.TwitterLike, 300, Config{Seed: 78})
			if err := f.idx.CheckInvariants(); err != nil {
				t.Fatalf("pre-mutation index invalid: %v", err)
			}
			// Move a cluster with several members to the front so every
			// mutation has something to corrupt.
			for i, c := range f.idx.clusters {
				if len(c.elems) >= 3 {
					f.idx.clusters[0], f.idx.clusters[i] = c, f.idx.clusters[0]
					break
				}
			}
			m.mutate(f.idx)
			if err := f.idx.CheckInvariants(); err == nil {
				t.Fatalf("%s not detected", m.name)
			}
		})
	}
}

// CheckInvariants holds an overlay header to its stamps: each mutation
// below breaks one of "no stamp above the lineage's sequence" and "the
// header's counts are what its stamps imply at its own sequence".
func TestCheckInvariantsDetectsStampCorruption(t *testing.T) {
	mutations := []struct {
		name   string
		mutate func(x *Index)
	}{
		{"death stamp past the lineage", func(x *Index) {
			x.dv.log.dead[0].Store(uint32(x.dv.ops + 5))
		}},
		{"tombstone stamp past the lineage", func(x *Index) {
			for i := range x.rows() {
				if x.deltaTombs().get(uint32(i)) {
					x.dv.tombStamp[i] = uint32(x.dv.ops + 5)
					return
				}
			}
		}},
		{"tombstone bit without a stamp", func(x *Index) {
			x.dv.tombBits.set(uint32(x.rows() - 1))
		}},
		{"header past the lineage", func(x *Index) {
			x.dv.ops++
		}},
		{"live overlay inserts miscounted", func(x *Index) {
			x.dv.liveCount++
			x.live++
		}},
		{"tombstones miscounted", func(x *Index) {
			x.dv.nTombs--
			x.live++
		}},
		{"live objects miscounted", func(x *Index) {
			x.live--
		}},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			f := build(t, dataset.TwitterLike, 300, Config{Seed: 79})
			x := cloneHeader(f.idx)
			for i := 0; i < 6; i++ {
				o := f.ds.Objects[(i*41+3)%f.ds.Len()]
				o.ID = uint32(1<<20 + i)
				if err := x.Insert(o); err != nil {
					t.Fatal(err)
				}
			}
			for _, id := range []uint32{f.ds.Objects[0].ID, 1 << 20, f.ds.Objects[1].ID} {
				if err := x.Delete(id); err != nil {
					t.Fatal(err)
				}
			}
			if err := x.CheckInvariants(); err != nil {
				t.Fatalf("pre-mutation overlay invalid: %v", err)
			}
			m.mutate(x)
			if err := x.CheckInvariants(); err == nil {
				t.Fatalf("%s not detected", m.name)
			}
		})
	}
}
