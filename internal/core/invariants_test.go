package core

import (
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
			x.clusters[0].members[0].ds += 0.5
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
		{"phantom deleted member", func(x *Index) {
			x.deleted.set(x.clusters[0].members[0].idx)
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
		{"contiguous cluster reading a copy", func(x *Index) {
			c := x.clusters[0]
			c.gathered = &blockCopy(x)[0]
			c.base = -1
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
		{"stale gathered block", func(x *Index) {
			c := x.clusters[0]
			last := len(c.elems) - 1
			c.elems[0].idx, c.elems[last].idx = c.elems[last].idx, c.elems[0].idx
			x.fillClusterBlock(c)
			c.gathered.adist[0]++
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
				if len(c.members) >= 3 {
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
