package core

import "unsafe"

// HeapBytes attributes an index's heap footprint to the structures that
// hold it, each as capacity × element size: what the index references,
// not what the allocator rounded it up to. A snapshot counts in full the
// structures it shares with the other snapshots of its lineage. Texts
// counts the string headers only: a built index shares the strings
// themselves with the objects it was built from.
type HeapBytes struct {
	Vectors     int64 `json:"vectors"`     // the n-dimensional vector arena
	Projections int64 `json:"projections"` // the m-dimensional projection arena
	Coords      int64 `json:"coords"`      // the x and y arenas
	Anchors     int64 `json:"anchors"`     // the anchor rows and the anchor set
	IDs         int64 `json:"ids"`         // the ID column
	Texts       int64 `json:"texts"`       // the text column's string headers
	Topics      int64 `json:"topics"`      // the topic column
	Assign      int64 `json:"assign"`      // the cell column: each row's side pair
	Elems       int64 `json:"elems"`       // the hybrid clusters' element arrays
	Clusters    int64 `json:"clusters"`    // cluster headers, directory and grid
	Model       int64 `json:"model"`       // centroids, radii and the PCA model
	IDTable     int64 `json:"idTable"`     // the ID → storage position table
	Overlay     int64 `json:"overlay"`     // the write overlay, when there is one
}

// Total returns the sum over the structures.
func (h HeapBytes) Total() int64 {
	return h.Vectors + h.Projections + h.Coords + h.Anchors + h.IDs + h.Texts + h.Topics +
		h.Assign + h.Elems + h.Clusters + h.Model +
		h.IDTable + h.Overlay
}

// sizeOf returns the bytes a slice's backing array holds.
func sizeOf[T any](s []T) int64 {
	var z T
	return int64(cap(s)) * int64(unsafe.Sizeof(z))
}

// rowsOf returns the bytes of a list of slices: its headers plus every
// slice's backing array.
func rowsOf[T any](rows [][]T) int64 {
	n := sizeOf(rows)
	for _, r := range rows {
		n += sizeOf(r)
	}
	return n
}

// HeapBytes returns the index's heap ledger. It walks the clusters and
// the ID table's buckets, so it suits a stats request, not a query.
func (x *Index) HeapBytes() HeapBytes {
	h := HeapBytes{
		Vectors:     sizeOf(x.vecArena),
		Projections: sizeOf(x.projArena),
		Coords:      sizeOf(x.xArena) + sizeOf(x.yArena),
		IDs:         sizeOf(x.ids),
		Texts:       sizeOf(x.texts),
		Topics:      sizeOf(x.topics),
		Assign:      sizeOf(x.cells),
		Clusters:    sizeOf(x.clusters) + sizeOf(x.grid),
		Model: sizeOf(x.sCentX) + sizeOf(x.sCentY) + sizeOf(x.sRad) + sizeOf(x.builtSRad) +
			rowsOf(x.tCent) + rowsOf(x.tCentProj) + sizeOf(x.tRad) + sizeOf(x.tRadProj) +
			sizeOf(x.builtTRadProj) + sizeOf(x.tValid),
		IDTable: x.idIdx.heapBytes(),
		Overlay: x.delta.heapBytes(&x.dv),
	}
	if aa := x.anchors; aa != nil {
		h.Anchors = sizeOf(aa.id) + sizeOf(aa.dist) + rowsOf(aa.set.pts)
		if aa.set.rank != nil {
			h.Anchors += aa.set.rank.Bytes()
		}
	}
	if p := x.pcaModel; p != nil {
		h.Model += 8 * int64(p.N()*(p.M()+1))
	}
	for _, c := range x.clusters {
		h.Elems += sizeOf(c.elems)
		h.Clusters += int64(unsafe.Sizeof(*c))
	}
	return h
}

// heapBytes returns the bytes of the table's buckets.
func (t *idTable) heapBytes() int64 {
	var n int64
	for _, b := range t.buckets {
		n += sizeOf(b)
	}
	return n
}

// heapBytes returns the bytes of the overlay as header v sees it: its
// log, tombstones and groups, the shared ID table, and one undo record
// per slot and one group-index entry per group (0 for none).
func (d *overlayDelta) heapBytes(v *deltaView) int64 {
	if d == nil {
		return 0
	}
	n := sizeOf(v.groups) + int64(len(v.groups))*int64(unsafe.Sizeof(overlayGroup{})+8) +
		sizeOf(v.tombBits) + sizeOf(v.tombStamp) + int64(v.n)*int64(unsafe.Sizeof(slotUndo{}))
	if b := v.log; b != nil {
		n += sizeOf(b.objs) + sizeOf(b.vecs) + sizeOf(b.projs) + sizeOf(b.dead) + sizeOf(b.next) +
			sizeOf(b.radDs) + sizeOf(b.radDt)
	}
	return n + sizeOf(d.ids.Load().e)
}
