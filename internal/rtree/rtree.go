// Package rtree implements a d-dimensional rectangle R-tree with STR bulk
// loading and generic best-first traversal (Hjaltason–Samet distance
// browsing). It backs the spatial-only baseline of the evaluation (§7.1
// "R-tree"), the spatial layer of the S²R-tree, and the reference-space
// index of the RR*-tree baseline.
package rtree

import (
	"container/heap"
	"fmt"
	"math"
	"sort"

	"repro/internal/geo"
)

// Entry is a leaf item: a rectangle (possibly degenerate, i.e. a point)
// and the caller's item id.
type Entry struct {
	Rect geo.Rect
	ID   uint32
}

type entry struct {
	rect  geo.Rect
	child *node  // nil at leaves
	id    uint32 // valid at leaves
}

type node struct {
	leaf    bool
	entries []entry
}

// Tree is an R-tree over d-dimensional rectangles.
type Tree struct {
	root       *node
	dims       int
	maxEntries int
	size       int
}

// DefaultMaxEntries is the default node fan-out.
const DefaultMaxEntries = 32

// New returns an empty tree for rectangles of the given dimensionality.
// maxEntries <= 0 selects DefaultMaxEntries.
func New(dims, maxEntries int) *Tree {
	if dims < 1 {
		panic("rtree: dims must be >= 1")
	}
	if maxEntries <= 0 {
		maxEntries = DefaultMaxEntries
	}
	if maxEntries < 4 {
		maxEntries = 4
	}
	return &Tree{
		root:       &node{leaf: true},
		dims:       dims,
		maxEntries: maxEntries,
	}
}

// BulkLoad builds a tree from the entries using Sort-Tile-Recursive
// packing. The input slice is reordered in place.
func BulkLoad(entries []Entry, dims, maxEntries int) *Tree {
	t := New(dims, maxEntries)
	if len(entries) == 0 {
		return t
	}
	es := make([]entry, len(entries))
	for i, e := range entries {
		if e.Rect.Dims() != dims {
			panic(fmt.Sprintf("rtree: entry dims %d != tree dims %d", e.Rect.Dims(), dims))
		}
		es[i] = entry{rect: e.Rect, id: e.ID}
	}
	level := packLevel(es, dims, t.maxEntries, true)
	for len(level) > 1 {
		parents := make([]entry, len(level))
		for i, n := range level {
			parents[i] = entry{rect: nodeRect(n, dims), child: n}
		}
		level = packLevel(parents, dims, t.maxEntries, false)
	}
	t.root = level[0]
	t.size = len(entries)
	return t
}

// packLevel groups entries into nodes of at most maxEntries using STR
// tiling, returning the new nodes.
func packLevel(es []entry, dims, maxEntries int, leaf bool) []*node {
	groups := strPack(es, dims, maxEntries, 0)
	nodes := make([]*node, len(groups))
	for i, g := range groups {
		nodes[i] = &node{leaf: leaf, entries: g}
	}
	return nodes
}

// strPack recursively tiles es along dimension dim, producing groups of
// at most m entries.
func strPack(es []entry, dims, m, dim int) [][]entry {
	if len(es) <= m {
		return [][]entry{es}
	}
	if dim >= dims-1 {
		// Final dimension: sort and chop.
		sortByCenter(es, dim)
		var out [][]entry
		for lo := 0; lo < len(es); lo += m {
			hi := lo + m
			if hi > len(es) {
				hi = len(es)
			}
			out = append(out, es[lo:hi:hi])
		}
		return out
	}
	numGroups := (len(es) + m - 1) / m
	// Number of slabs along this dimension: numGroups^(1/remainingDims).
	remaining := dims - dim
	slabs := int(math.Ceil(math.Pow(float64(numGroups), 1/float64(remaining))))
	if slabs < 1 {
		slabs = 1
	}
	slabSize := (len(es) + slabs - 1) / slabs
	sortByCenter(es, dim)
	var out [][]entry
	for lo := 0; lo < len(es); lo += slabSize {
		hi := lo + slabSize
		if hi > len(es) {
			hi = len(es)
		}
		out = append(out, strPack(es[lo:hi:hi], dims, m, dim+1)...)
	}
	return out
}

func sortByCenter(es []entry, dim int) {
	sort.Slice(es, func(i, j int) bool {
		ci := es[i].rect.Lo[dim] + es[i].rect.Hi[dim]
		cj := es[j].rect.Lo[dim] + es[j].rect.Hi[dim]
		return ci < cj
	})
}

func nodeRect(n *node, dims int) geo.Rect {
	r := geo.NewRect(dims)
	for i := range n.entries {
		r.ExtendRect(n.entries[i].rect)
	}
	return r
}

// pqItem is a best-first queue element: either a node or a leaf entry.
type pqItem struct {
	dist float64
	n    *node // nil for object items
	id   uint32
	rect geo.Rect
}

type pq []pqItem

func (p pq) Len() int            { return len(p) }
func (p pq) Less(i, j int) bool  { return p[i].dist < p[j].dist }
func (p pq) Swap(i, j int)       { p[i], p[j] = p[j], p[i] }
func (p *pq) Push(x interface{}) { *p = append(*p, x.(pqItem)) }
func (p *pq) Pop() interface{} {
	old := *p
	n := len(old)
	x := old[n-1]
	*p = old[:n-1]
	return x
}

// BestFirst traverses the tree in ascending order of nodeLB over entry
// rectangles, calling emit for each leaf entry (objects arrive in
// ascending lower-bound order). emit returns false to stop the
// traversal — for k-NN, stop once the popped lower bound reaches the
// current k-th best distance. nodesVisited counts internal+leaf nodes
// popped (an index-overhead measure).
func (t *Tree) BestFirst(nodeLB func(geo.Rect) float64, emit func(id uint32, lb float64) bool) (nodesVisited int) {
	if t.size == 0 {
		return 0
	}
	q := pq{{dist: nodeLB(nodeRect(t.root, t.dims)), n: t.root}}
	for len(q) > 0 {
		item := heap.Pop(&q).(pqItem)
		if item.n == nil {
			if !emit(item.id, item.dist) {
				return nodesVisited
			}
			continue
		}
		nodesVisited++
		for i := range item.n.entries {
			e := &item.n.entries[i]
			d := nodeLB(e.rect)
			if e.child != nil {
				heap.Push(&q, pqItem{dist: d, n: e.child})
			} else {
				heap.Push(&q, pqItem{dist: d, id: e.id, rect: e.rect})
			}
		}
	}
	return nodesVisited
}
