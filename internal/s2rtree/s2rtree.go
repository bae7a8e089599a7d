// Package s2rtree reimplements the S²R-tree of Chen et al. (GeoInformatica
// 2020), the state-of-the-art competitor of the paper (§2, §7). It is a
// spatial-first index: an R-tree built on the spatial coordinates whose
// nodes are augmented bottom-up with m-dimensional minimum bounding boxes
// (MBBs) of pivot-projected semantic vectors, and whose leaves index the
// m-dimensional representations in a small semantic layer.
//
// The pivot projection maps a semantic vector v to the vector of its
// distances to m pivots chosen by farthest-first traversal. By the
// triangle inequality, |d(v,p_i) − d(q,p_i)| ≤ d(v,q) for every pivot, so
// the Chebyshev distance in pivot space lower-bounds the true semantic
// distance — this is the pruning signal the S²R-tree adds on top of its
// spatial mindist. Query processing is single-priority-queue best-first
// with termination when the popped lower bound reaches the current k-th
// distance, exactly as described in §2.
package s2rtree

import (
	"container/heap"
	"math/rand/v2"
	"sort"

	"repro/internal/dataset"
	"repro/internal/geo"
	"repro/internal/knn"
	"repro/internal/metric"
	"repro/internal/vec"
)

// Config controls index construction.
type Config struct {
	// Pivots is m, the pivot-space dimensionality (default 2, the value
	// the S²R-tree paper and §7.1 use for projections).
	Pivots int
	// LeafCapacity is the number of objects per spatial leaf
	// (default 64).
	LeafCapacity int
	// Fanout is the internal-node fan-out (default 32).
	Fanout int
	// GroupSize is the size of the semantic sub-groups forming the
	// per-leaf semantic layer (default 8).
	GroupSize int
	// Seed drives pivot selection.
	Seed uint64
}

func (c *Config) applyDefaults() {
	if c.Pivots <= 0 {
		c.Pivots = 2
	}
	if c.LeafCapacity <= 0 {
		c.LeafCapacity = 64
	}
	if c.Fanout <= 0 {
		c.Fanout = 32
	}
	if c.GroupSize <= 0 {
		c.GroupSize = 8
	}
}

// group is one semantic-layer sub-group of a spatial leaf. ids are
// indices into the object slice (not object IDs, which need not be
// positional).
type group struct {
	sem geo.Rect // pivot-space MBB (raw distances)
	ids []uint32
}

type node struct {
	leaf     bool
	spatial  geo.Rect // 2D
	sem      geo.Rect // pivot-space MBB (raw distances)
	children []*node
	groups   []group // populated at leaves
}

// Index is a built S²R-tree.
type Index struct {
	cfg     Config
	space   *metric.Space
	objects []dataset.Object
	pivots  [][]float32
	proj    [][]float64 // per-object raw pivot distances
	root    *node
}

// Build constructs the index over the dataset.
func Build(ds *dataset.Dataset, space *metric.Space, cfg Config) *Index {
	cfg.applyDefaults()
	idx := &Index{cfg: cfg, space: space, objects: ds.Objects}
	if ds.Len() == 0 {
		idx.root = &node{leaf: true, spatial: geo.NewRect(2), sem: geo.NewRect(cfg.Pivots)}
		return idx
	}
	idx.pivots = selectPivots(ds.Objects, cfg.Pivots, cfg.Seed)
	idx.proj = make([][]float64, len(ds.Objects))
	for i := range ds.Objects {
		idx.proj[i] = projectVec(ds.Objects[i].Vec, idx.pivots)
	}
	order := make([]int, len(ds.Objects))
	for i := range order {
		order[i] = i
	}
	leaves := idx.packLeaves(order)
	idx.root = idx.packUpper(leaves)
	return idx
}

// selectPivots picks m pivots by farthest-first traversal over a sample.
func selectPivots(objects []dataset.Object, m int, seed uint64) [][]float32 {
	rng := rand.New(rand.NewPCG(seed, 0x53325254))
	sampleSize := 2000
	if sampleSize > len(objects) {
		sampleSize = len(objects)
	}
	perm := rng.Perm(len(objects))[:sampleSize]
	if m > sampleSize {
		m = sampleSize
	}
	pivots := make([][]float32, 0, m)
	first := objects[perm[0]].Vec
	pivots = append(pivots, vec.Clone(first))
	minD := make([]float64, sampleSize)
	for i, pi := range perm {
		minD[i] = vec.SqDist(objects[pi].Vec, first)
	}
	for len(pivots) < m {
		best, bestD := 0, -1.0
		for i := range perm {
			if minD[i] > bestD {
				best, bestD = i, minD[i]
			}
		}
		p := vec.Clone(objects[perm[best]].Vec)
		pivots = append(pivots, p)
		for i, pi := range perm {
			if d := vec.SqDist(objects[pi].Vec, p); d < minD[i] {
				minD[i] = d
			}
		}
	}
	return pivots
}

func projectVec(v []float32, pivots [][]float32) []float64 {
	out := make([]float64, len(pivots))
	for i, p := range pivots {
		out[i] = vec.Dist(v, p)
	}
	return out
}

// packLeaves tiles object indices by (x,y) using STR into spatial leaves,
// each carrying its semantic layer.
func (x *Index) packLeaves(order []int) []*node {
	cap := x.cfg.LeafCapacity
	numLeaves := (len(order) + cap - 1) / cap
	slabs := intSqrtCeil(numLeaves)
	slabSize := (len(order) + slabs - 1) / slabs
	sort.Slice(order, func(a, b int) bool { return x.objects[order[a]].X < x.objects[order[b]].X })
	var leaves []*node
	for lo := 0; lo < len(order); lo += slabSize {
		hi := lo + slabSize
		if hi > len(order) {
			hi = len(order)
		}
		slab := order[lo:hi]
		sort.Slice(slab, func(a, b int) bool { return x.objects[slab[a]].Y < x.objects[slab[b]].Y })
		for l2 := 0; l2 < len(slab); l2 += cap {
			h2 := l2 + cap
			if h2 > len(slab) {
				h2 = len(slab)
			}
			leaves = append(leaves, x.buildLeaf(slab[l2:h2]))
		}
	}
	return leaves
}

// buildLeaf creates a spatial leaf and its semantic layer over members.
func (x *Index) buildLeaf(members []int) *node {
	n := &node{leaf: true, spatial: geo.NewRect(2), sem: geo.NewRect(x.cfg.Pivots)}
	// Sort members by first pivot coordinate and chop into semantic
	// groups (a 1-level STR in pivot space — the leaf-local "R-tree that
	// indexes the m-dimensional representations").
	ms := make([]int, len(members))
	copy(ms, members)
	sort.Slice(ms, func(a, b int) bool { return x.proj[ms[a]][0] < x.proj[ms[b]][0] })
	for lo := 0; lo < len(ms); lo += x.cfg.GroupSize {
		hi := lo + x.cfg.GroupSize
		if hi > len(ms) {
			hi = len(ms)
		}
		g := group{sem: geo.NewRect(x.cfg.Pivots)}
		for _, i := range ms[lo:hi] {
			g.sem.ExtendPoint(x.proj[i])
			g.ids = append(g.ids, uint32(i))
		}
		n.groups = append(n.groups, g)
		n.sem.ExtendRect(g.sem)
	}
	for _, i := range members {
		n.spatial.ExtendPoint([]float64{x.objects[i].X, x.objects[i].Y})
	}
	return n
}

// packUpper builds the internal levels over the leaves, propagating both
// the spatial MBRs and the semantic MBBs bottom-up.
func (x *Index) packUpper(level []*node) *node {
	for len(level) > 1 {
		sort.Slice(level, func(a, b int) bool {
			ca := level[a].spatial.Lo[0] + level[a].spatial.Hi[0]
			cb := level[b].spatial.Lo[0] + level[b].spatial.Hi[0]
			return ca < cb
		})
		var next []*node
		for lo := 0; lo < len(level); lo += x.cfg.Fanout {
			hi := lo + x.cfg.Fanout
			if hi > len(level) {
				hi = len(level)
			}
			p := &node{spatial: geo.NewRect(2), sem: geo.NewRect(x.cfg.Pivots)}
			for _, c := range level[lo:hi] {
				p.children = append(p.children, c)
				p.spatial.ExtendRect(c.spatial)
				p.sem.ExtendRect(c.sem)
			}
			next = append(next, p)
		}
		level = next
	}
	return level[0]
}

func intSqrtCeil(n int) int {
	if n <= 1 {
		return 1
	}
	r := 1
	for r*r < n {
		r++
	}
	return r
}

// pqItem is a best-first queue element.
type pqItem struct {
	lb  float64
	n   *node
	g   *group
	gn  *node // owning leaf of g (for its spatial rect)
	id  uint32
	obj bool
}

type pq []pqItem

func (p pq) Len() int            { return len(p) }
func (p pq) Less(i, j int) bool  { return p[i].lb < p[j].lb }
func (p pq) Swap(i, j int)       { p[i], p[j] = p[j], p[i] }
func (p *pq) Push(v interface{}) { *p = append(*p, v.(pqItem)) }
func (p *pq) Pop() interface{} {
	old := *p
	n := len(old)
	v := old[n-1]
	*p = old[:n-1]
	return v
}

// Search returns the exact k nearest neighbors of q under
// d = λ·ds + (1−λ)·dt.
func (x *Index) Search(q *dataset.Object, k int, lambda float64, st *metric.Stats) []knn.Result {
	h := knn.NewHeap(k)
	if len(x.objects) == 0 {
		return nil
	}
	qp := []float64{q.X, q.Y}
	dq := projectVec(q.Vec, x.pivots)
	nodeLB := func(n *node) float64 {
		return lambda*n.spatial.MinDist(qp)/x.space.DsMax +
			(1-lambda)*n.sem.MinDistChebyshev(dq)/x.space.DtMax
	}
	var queue pq
	heap.Push(&queue, pqItem{lb: nodeLB(x.root), n: x.root})
	for queue.Len() > 0 {
		item := heap.Pop(&queue).(pqItem)
		if bound, ok := h.Bound(); ok && item.lb >= bound {
			break // best-first termination (§2)
		}
		switch {
		case item.obj:
			o := &x.objects[item.id]
			d := x.space.Distance(st, lambda, q, o)
			h.Push(knn.Result{ID: o.ID, Dist: d})
		case item.g != nil:
			for _, id := range item.g.ids {
				o := &x.objects[id]
				// Exact spatial distance plus the pivot semantic lower
				// bound.
				semLB := chebGap(dq, x.proj[id])
				lb := lambda*x.space.Spatial(st, q.X, q.Y, o.X, o.Y) +
					(1-lambda)*semLB/x.space.DtMax
				heap.Push(&queue, pqItem{lb: lb, id: id, obj: true})
			}
		default:
			if st != nil {
				st.ClustersExamined++
			}
			n := item.n
			if n.leaf {
				for i := range n.groups {
					g := &n.groups[i]
					lb := lambda*n.spatial.MinDist(qp)/x.space.DsMax +
						(1-lambda)*g.sem.MinDistChebyshev(dq)/x.space.DtMax
					heap.Push(&queue, pqItem{lb: lb, g: g, gn: n})
				}
			} else {
				for _, c := range n.children {
					heap.Push(&queue, pqItem{lb: nodeLB(c), n: c})
				}
			}
		}
	}
	return h.Sorted()
}

// chebGap returns max_i |a_i − b_i|, the pivot-space Chebyshev distance
// between two projected points.
func chebGap(a, b []float64) float64 {
	var mx float64
	for i, v := range a {
		d := v - b[i]
		if d < 0 {
			d = -d
		}
		if d > mx {
			mx = d
		}
	}
	return mx
}
