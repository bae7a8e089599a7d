package rtree

import (
	"sort"

	"repro/internal/geo"
)

// rstarSplit splits an overfull node in place and returns the new
// sibling, by the R*-tree split of Beckmann et al.: choose the split axis
// by minimum total margin over candidate distributions, then the
// distribution with minimum overlap (ties: minimum area).
func (t *Tree) rstarSplit(n *node) *node {
	es := n.entries
	total := len(es)
	m := t.minEntries
	if m < 1 {
		m = 1
	}
	maxK := total - m // distributions put k entries left, m ≤ k ≤ total-m

	// Per axis, consider the entries sorted by lower and by upper
	// bound; pick the axis whose candidate distributions have the
	// smallest summed margin.
	bestAxis, bestBySort := 0, 0
	bestMargin := -1.0
	for axis := 0; axis < t.dims; axis++ {
		for bySort := 0; bySort < 2; bySort++ {
			cand := make([]entry, total)
			copy(cand, es)
			axis := axis
			if bySort == 0 {
				sort.Slice(cand, func(a, b int) bool { return cand[a].rect.Lo[axis] < cand[b].rect.Lo[axis] })
			} else {
				sort.Slice(cand, func(a, b int) bool { return cand[a].rect.Hi[axis] < cand[b].rect.Hi[axis] })
			}
			var marginSum float64
			for k := m; k <= maxK; k++ {
				left := coverRect(cand[:k], t.dims)
				right := coverRect(cand[k:], t.dims)
				marginSum += left.Margin() + right.Margin()
			}
			if bestMargin < 0 || marginSum < bestMargin {
				bestMargin = marginSum
				bestAxis, bestBySort = axis, bySort
			}
		}
	}

	// Re-sort along the chosen axis/order and pick the distribution
	// with the least overlap (ties: least total area).
	cand := make([]entry, total)
	copy(cand, es)
	axis := bestAxis
	if bestBySort == 0 {
		sort.Slice(cand, func(a, b int) bool { return cand[a].rect.Lo[axis] < cand[b].rect.Lo[axis] })
	} else {
		sort.Slice(cand, func(a, b int) bool { return cand[a].rect.Hi[axis] < cand[b].rect.Hi[axis] })
	}
	bestK := m
	bestOverlap, bestArea := -1.0, 0.0
	for k := m; k <= maxK; k++ {
		left := coverRect(cand[:k], t.dims)
		right := coverRect(cand[k:], t.dims)
		ov := overlapArea(left, right)
		area := left.Area() + right.Area()
		if bestOverlap < 0 || ov < bestOverlap || (ov == bestOverlap && area < bestArea) {
			bestOverlap, bestArea, bestK = ov, area, k
		}
	}
	left := make([]entry, bestK)
	copy(left, cand[:bestK])
	right := make([]entry, total-bestK)
	copy(right, cand[bestK:])
	n.entries = left
	return &node{leaf: n.leaf, entries: right}
}

// coverRect returns the bounding rectangle of the entries.
func coverRect(es []entry, dims int) geo.Rect {
	r := geo.NewRect(dims)
	for i := range es {
		r.ExtendRect(es[i].rect)
	}
	return r
}

// overlapArea returns the volume of the intersection of a and b.
func overlapArea(a, b geo.Rect) float64 {
	v := 1.0
	for i := range a.Lo {
		lo := a.Lo[i]
		if b.Lo[i] > lo {
			lo = b.Lo[i]
		}
		hi := a.Hi[i]
		if b.Hi[i] < hi {
			hi = b.Hi[i]
		}
		if hi <= lo {
			return 0
		}
		v *= hi - lo
	}
	return v
}
