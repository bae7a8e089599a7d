package core

import (
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/internal/par"
)

// Cluster-major storage. Build, Rebuild, RebuildFresh and Load leave
// every hybrid cluster's elements at consecutive storage positions, in
// elems order: elems[j].idx == base+j. The unit of work of Alg. 2 — walk
// one cluster's array front to back — is then one linear read of each
// arena (coordinates, anchors, float32 rows, objects) instead of one
// random slot per element, and a contiguous cluster needs no per-cluster
// copy of anything: its scan block is a window of the arenas.
//
// Storage order is data, not format: the file layout is unchanged, a
// file whose clusters are not contiguous (written before this layout
// existed, or saved after in-place maintenance) is renumbered when it
// loads, and the coordinate arena is derived from objects, never
// serialized.

// clusterBlock is the per-row data the scan loops read, one entry per
// element in elems order: the location and the anchor id and distance
// (see anchor.go). The float32 rows are read straight from vecArena.
type clusterBlock struct {
	xs, ys []float64
	aid    []uint8
	adist  []float32
}

// block returns c's scan block. A contiguous cluster's block is a
// window of the arenas, resolved through this Index's own arena headers
// on every call and written into w (the scratch's blk on the query
// path: four slice headers filled in place, never passed by value). A
// COW clone that regrew an arena reads its own backing and the parent
// snapshot its own, the rows being identical, so shared clusters hold no
// pointer that could go stale or pin a superseded backing array —
// putScratch clears blk for the same reason. A cluster that in-place
// maintenance touched carries a private gathered copy, returned as is.
func (x *Index) block(w *clusterBlock, c *hybrid) *clusterBlock {
	if c.base < 0 {
		return c.gathered
	}
	lo, hi := c.base, c.base+len(c.elems)
	w.xs, w.ys = x.xArena[lo:hi], x.yArena[lo:hi]
	w.aid, w.adist = x.anchors.id[lo:hi], x.anchors.dist[lo:hi]
	return w
}

// contiguous reports whether the elements sit at consecutive storage
// positions in array order.
func contiguous(elems []element) bool {
	for j := range elems {
		if elems[j].idx != elems[0].idx+uint32(j) {
			return false
		}
	}
	return true
}

// headThresholds returns the threshold pair that bounds every element
// of the array: the first element's, the thresholds being
// non-increasing, and −Inf for an empty array.
func headThresholds(elems []element) (ds, dt float64) {
	if len(elems) == 0 {
		return math.Inf(-1), math.Inf(-1)
	}
	return elems[0].ds, elems[0].dt
}

// fillClusterBlock (re)derives c's head thresholds and scan block from
// its element array: the arena window when the elements are contiguous,
// else a gathered copy in elems order. Like elems it is derived data,
// rebuilt wherever buildElems runs and never mutated in place
// afterwards, so COW clones share it safely.
func (x *Index) fillClusterBlock(c *hybrid) {
	n := len(c.elems)
	c.headDs, c.headDt = headThresholds(c.elems)
	if contiguous(c.elems) {
		c.base, c.gathered = 0, nil
		if n > 0 {
			c.base = int(c.elems[0].idx)
		}
		return
	}
	g := &clusterBlock{xs: make([]float64, n), ys: make([]float64, n),
		aid: make([]uint8, n), adist: make([]float32, n)}
	aa := x.anchors
	for j := range c.elems {
		idx := c.elems[j].idx
		g.xs[j], g.ys[j] = x.xArena[idx], x.yArena[idx]
		g.aid[j], g.adist[j] = aa.id[idx], aa.dist[idx]
	}
	c.base, c.gathered = -1, g
}

// fillCoordArena derives the coordinate arena from the stored objects.
func (x *Index) fillCoordArena() {
	x.xArena = make([]float64, len(x.objects))
	x.yArena = make([]float64, len(x.objects))
	for i := range x.objects {
		x.xArena[i], x.yArena[i] = x.objects[i].X, x.objects[i].Y
	}
}

// layoutClusterMajor renumbers storage so that every cluster's elements
// are contiguous in elems order: cluster after cluster in directory
// order, then every position no cluster lists (deleted slots) in its old
// relative order. Everything indexed by storage position moves together.
// It runs on an index nothing else references yet (the tail of Build and
// Load) and does nothing when the clusters already are contiguous, which
// is every file this code wrote from a freshly built index. Build arrives
// with no vector arena at all — its objects still view the caller's
// vectors — so the arena is written once, here, in its final order. The
// error reports element arrays that are not a partial permutation of
// storage, which only a damaged file can produce.
func (x *Index) layoutClusterMajor() error {
	n := len(x.objects)
	const unset = ^uint32(0)
	perm := make([]uint32, n) // old position → new position
	for i := range perm {
		perm[i] = unset
	}
	next, already := uint32(0), true
	for _, c := range x.clusters {
		already = already && contiguous(c.elems)
		for _, e := range c.elems {
			if int(e.idx) >= n || perm[e.idx] != unset {
				return fmt.Errorf("object position %d out of range or listed twice", e.idx)
			}
			perm[e.idx] = next
			next++
		}
	}
	if already && x.vecArena != nil {
		return nil
	}
	for i := range perm {
		if perm[i] == unset {
			perm[i] = next
			next++
		}
	}
	if len(x.sAssign) != n || len(x.tAssign) != n {
		return fmt.Errorf("%d/%d side assignments for %d objects", len(x.sAssign), len(x.tAssign), n)
	}
	for _, lists := range [2][][]uint32{x.sMembers, x.tMembers} {
		for _, list := range lists {
			for _, old := range list {
				if int(old) >= n {
					return fmt.Errorf("side membership lists position %d of %d", old, n)
				}
			}
		}
	}

	d, m := x.dim, x.m
	objects := make([]dataset.Object, n)
	vecArena := make([]float32, n*d)
	projArena := make([]float32, n*m)
	sAssign, tAssign := make([]int, n), make([]int, n)
	par.For(n, x.cfg.Workers, func(lo, hi int) {
		for old := lo; old < hi; old++ {
			p := int(perm[old])
			objects[p] = x.objects[old]
			row := vecArena[p*d : (p+1)*d : (p+1)*d]
			copy(row, x.objects[old].Vec)
			objects[p].Vec = row
			copy(projArena[p*m:(p+1)*m], x.projAt(uint32(old)))
			sAssign[p], tAssign[p] = x.sAssign[old], x.tAssign[old]
		}
	})
	deleted := newBitset(n)
	for old := range perm {
		if x.deleted.get(uint32(old)) {
			deleted.set(perm[old])
		}
	}
	x.objects, x.vecArena, x.projArena = objects, vecArena, projArena
	x.sAssign, x.tAssign, x.deleted = sAssign, tAssign, deleted

	for _, lists := range [2][][]uint32{x.sMembers, x.tMembers} {
		for _, list := range lists {
			for i, old := range list {
				list[i] = perm[old]
			}
		}
	}
	for _, c := range x.clusters {
		for i := range c.members {
			c.members[i].idx = perm[c.members[i].idx]
		}
		for i := range c.elems {
			c.elems[i].idx = perm[c.elems[i].idx]
		}
	}
	for id, old := range x.idToIdx {
		x.idToIdx[id] = perm[old]
	}
	return nil
}
