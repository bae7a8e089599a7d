package core

import "repro/internal/par"

// Cluster-major storage. Build, RebuildFresh, Compact and Load leave
// every hybrid cluster's elements at consecutive storage positions, in
// elems order: elems[j].idx == base+j. The unit of work of Alg. 2 — walk
// one cluster's array front to back — is then one linear read of each
// arena (coordinates, anchors, float32 rows, IDs) instead of one random
// slot per element, and a contiguous cluster needs no per-cluster copy of
// anything: its scan block is a window of the arenas.
//
// Every base is built by derive, and nothing writes a base afterwards
// (every write lands in the overlay), so every cluster stays an arena
// window for the base's lifetime. Storage order is data, not format: the
// file layout is unchanged, and a file whose clusters are not contiguous
// (written by an older version) is renumbered when it loads.

// clusterBlock is the per-row data the scan loops read, one entry per
// element in elems order: the location and the anchor id and distance
// (see anchor.go). The float32 rows are read straight from vecArena.
type clusterBlock struct {
	xs, ys []float64
	aid    []uint8
	adist  []float32
}

// block returns c's scan block, a window of the arenas, resolved
// through this Index's own arena headers on every call and written into
// w (the scratch's blk on the query path: four slice headers filled in
// place, never passed by value). putScratch clears blk so that a pooled
// scratch pins no superseded snapshot's arenas.
func (x *Index) block(w *clusterBlock, c *hybrid) *clusterBlock {
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

// fillClusterBlock derives c's head thresholds and the base of its
// arena window from its element array, which layoutClusterMajor has
// made contiguous. derive calls it once per cluster.
func fillClusterBlock(c *hybrid) {
	e := &c.elems[0]
	c.headDs, c.headDt, c.base = e.ds, e.dt, int(e.idx)
}

// layoutClusterMajor renumbers storage so that every cluster's elements
// are contiguous in elems order, cluster after cluster in directory
// order; every row is in one cluster, so the clusters tile storage.
// Everything indexed by storage position moves together. It runs inside
// derive, on an index nothing else references yet, and does nothing when
// the clusters already are contiguous, which is every file this code
// wrote. Build and Compact arrive with no vector arena at all but one
// vector per position in vecs (the caller's, or views of the folded
// snapshot's rows), so the arena is written once, here, in its final
// order; Load passes nil.
func (x *Index) layoutClusterMajor(vecs [][]float32) {
	n := x.rows()
	perm := make([]uint32, n) // old position → new position
	next, already := uint32(0), true
	for _, c := range x.clusters {
		already = already && contiguous(c.elems)
		for _, e := range c.elems {
			perm[e.idx] = next
			next++
		}
	}
	if already && vecs == nil {
		return
	}
	if vecs == nil {
		vecs = make([][]float32, n)
		for i := range vecs {
			vecs[i] = x.vecAt(uint32(i))
		}
	}

	d, m := x.dim, x.m
	vecArena := make([]float32, n*d)
	projArena := make([]float32, n*m)
	ids, texts, topics := make([]uint32, n), make([]string, n), make([]int, n)
	xs, ys := make([]float64, n), make([]float64, n)
	cells := make([]uint32, n)
	aa := x.anchors // carried anchor rows (a fold's), moved with the rest
	var aid []uint8
	var adist []float32
	if aa != nil {
		aid, adist = make([]uint8, n), make([]float32, n)
	}
	par.For(n, x.cfg.Workers, func(lo, hi int) {
		for old := lo; old < hi; old++ {
			p := int(perm[old])
			copy(vecArena[p*d:(p+1)*d], vecs[old])
			copy(projArena[p*m:(p+1)*m], x.projAt(uint32(old)))
			ids[p], texts[p], topics[p] = x.ids[old], x.texts[old], x.topics[old]
			xs[p], ys[p] = x.xArena[old], x.yArena[old]
			cells[p] = x.cells[old]
			if aa != nil {
				aid[p], adist[p] = aa.id[old], aa.dist[old]
			}
		}
	})
	if aa != nil {
		aa.id, aa.dist = aid, adist
	}
	x.vecArena, x.projArena = vecArena, projArena
	x.ids, x.texts, x.topics = ids, texts, topics
	x.xArena, x.yArena = xs, ys
	x.cells = cells
	x.idIdx.relabel(perm)
	for _, c := range x.clusters {
		for i := range c.elems {
			c.elems[i].idx = perm[c.elems[i].idx]
		}
	}
}
