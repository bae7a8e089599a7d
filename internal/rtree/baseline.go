package rtree

import (
	"repro/internal/dataset"
	"repro/internal/geo"
	"repro/internal/knn"
	"repro/internal/metric"
)

// Baseline is the evaluation's "R-tree" competitor (§7.1): a spatial-only
// R-tree with the semantic vectors stored at the leaves. Its best-first
// k-NN uses mindist computed under the worst-case assumption that some
// non-visited leaf holds an object with semantic distance zero, so node
// lower bounds carry only the λ-weighted spatial term.
type Baseline struct {
	tree    *Tree
	objects []dataset.Object
	space   *metric.Space
}

// NewBaseline bulk-loads the spatial R-tree over the dataset.
func NewBaseline(ds *dataset.Dataset, space *metric.Space, maxEntries int) *Baseline {
	entries := make([]Entry, ds.Len())
	for i := range ds.Objects {
		o := &ds.Objects[i]
		entries[i] = Entry{Rect: geo.RectFromPoint([]float64{o.X, o.Y}), ID: o.ID}
	}
	return &Baseline{
		tree:    BulkLoad(entries, 2, maxEntries),
		objects: ds.Objects,
		space:   space,
	}
}

// Search returns the exact k nearest neighbors of q under
// d = λ·ds + (1−λ)·dt using best-first traversal.
func (b *Baseline) Search(q *dataset.Object, k int, lambda float64, st *metric.Stats) []knn.Result {
	h := knn.NewHeap(k)
	qp := []float64{q.X, q.Y}
	nodeLB := func(r geo.Rect) float64 {
		// Worst case: semantic distance zero somewhere in the subtree.
		return lambda * r.MinDist(qp) / b.space.DsMax
	}
	nodes := b.tree.BestFirst(nodeLB, func(id uint32, lb float64) bool {
		if bound, ok := h.Bound(); ok && lb >= bound {
			return false // no remaining entry can improve the result
		}
		o := &b.objects[id]
		d := b.space.Distance(st, lambda, q, o)
		h.Push(knn.Result{ID: o.ID, Dist: d})
		return true
	})
	if st != nil {
		st.ClustersExamined += int64(nodes)
	}
	return h.Sorted()
}
