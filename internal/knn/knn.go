// Package knn provides the bounded result heap every search algorithm in
// this repository shares, plus the result-set error metric the paper uses
// to evaluate CSSIA (§7.1: missed exact neighbors divided by k).
package knn

import (
	"math"
	"slices"
)

// Result is one k-NN candidate.
type Result struct {
	ID   uint32
	Dist float64
}

// Heap maintains the k best (smallest-distance) results seen so far as a
// max-heap, so the worst kept result is inspectable in O(1). The sift
// operations are hand-written rather than going through container/heap:
// the interface indirection there boxes every pushed Result onto the
// heap, which would break the zero-allocation guarantee of the pooled
// search scratch that embeds this type. The zero value is empty with
// k=0; call Reset (or construct with NewHeap) before use.
type Heap struct {
	k     int
	items []Result
	// aux is the companion column of a heap filled by PushAux: aux[i]
	// rides with items[i]. It is empty in a heap filled by Push.
	aux []float64
}

// NewHeap returns a heap retaining the k smallest-distance results.
func NewHeap(k int) *Heap {
	h := &Heap{}
	h.Reset(k)
	return h
}

// Reset empties the heap and sets its capacity to k, retaining the
// backing storage so a pooled heap reaches zero allocations in steady
// state. It panics if k < 1.
func (h *Heap) Reset(k int) {
	if k < 1 {
		panic("knn: k must be >= 1")
	}
	h.k = k
	if cap(h.items) < k {
		h.items = make([]Result, 0, k)
	} else {
		h.items = h.items[:0]
	}
	h.aux = h.aux[:0]
}

// Full reports whether k results are held.
func (h *Heap) Full() bool { return len(h.items) >= h.k }

// Bound returns the distance of the current k-th nearest neighbor, or
// +Inf semantics via ok=false while fewer than k results are held. The
// paper's U (d(q,o_nn)).
func (h *Heap) Bound() (float64, bool) {
	if !h.Full() {
		return 0, false
	}
	return h.items[0].Dist, true
}

// worse orders candidates by descending quality: larger distance is
// worse, and on exact distance ties the larger ID is worse. Breaking
// ties by ID makes the kept set a pure function of the candidate set —
// independent of arrival order — which is what lets a sharded index
// chain or merge per-partition heaps and still reproduce the flat
// index's results bit-for-bit.
func worse(a, b Result) bool {
	if a.Dist != b.Dist {
		return a.Dist > b.Dist
	}
	return a.ID > b.ID
}

// Push offers a candidate. It returns true if the candidate was kept
// (i.e., the heap was not full or the candidate beat the current
// worst, ties broken by ascending ID).
func (h *Heap) Push(r Result) bool {
	if len(h.items) < h.k {
		h.items = append(h.items, r)
		h.siftUp(len(h.items) - 1)
		return true
	}
	if !worse(h.items[0], r) {
		return false
	}
	h.items[0] = r
	h.siftDown(0)
	return true
}

// PushAux is Push that also keeps a beside r in a companion column for
// MaxAux (CSSIA's projected distance, §5.3). Between a Reset and a
// DropAux, a heap is filled by Push or by PushAux, never by both.
func (h *Heap) PushAux(r Result, a float64) bool {
	if len(h.items) < h.k {
		h.items = append(h.items, r)
		h.aux = append(h.aux, a)
		h.siftUp(len(h.items) - 1)
		return true
	}
	if !worse(h.items[0], r) {
		return false
	}
	h.items[0], h.aux[0] = r, a
	h.siftDown(0)
	return true
}

// DropAux empties the companion column: the heap goes on as one filled by
// Push.
func (h *Heap) DropAux() { h.aux = h.aux[:0] }

// MaxAux returns the largest companion value held (-Inf for none).
func (h *Heap) MaxAux() float64 {
	mx := math.Inf(-1)
	for _, a := range h.aux {
		if a > mx {
			mx = a
		}
	}
	return mx
}

// siftUp and siftDown move each companion value with its result when the
// heap has a companion column.
func (h *Heap) siftUp(i int) {
	items, aux := h.items, h.aux
	for i > 0 {
		p := (i - 1) / 2
		if !worse(items[i], items[p]) {
			break
		}
		items[p], items[i] = items[i], items[p]
		if len(aux) > 0 {
			aux[p], aux[i] = aux[i], aux[p]
		}
		i = p
	}
}

func (h *Heap) siftDown(i int) {
	items, aux := h.items, h.aux
	n := len(items)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		big := l
		if r := l + 1; r < n && worse(items[r], items[l]) {
			big = r
		}
		if !worse(items[big], items[i]) {
			break
		}
		items[i], items[big] = items[big], items[i]
		if len(aux) > 0 {
			aux[i], aux[big] = aux[big], aux[i]
		}
		i = big
	}
}

// Items returns the held results in unspecified order (shared storage;
// do not mutate).
func (h *Heap) Items() []Result { return h.items }

// AppendSorted appends the held results to dst ordered by ascending
// distance (ties by ascending ID) and returns the extended slice. With a
// dst of sufficient capacity it performs no allocation; the heap itself
// is left unchanged.
func (h *Heap) AppendSorted(dst []Result) []Result {
	n := len(dst)
	dst = append(dst, h.items...)
	SortResults(dst[n:])
	return dst
}

// Sorted returns the held results ordered by ascending distance, ties
// broken by ascending ID for determinism.
func (h *Heap) Sorted() []Result {
	return h.AppendSorted(make([]Result, 0, len(h.items)))
}

// SortResults orders results by ascending distance, then ascending ID.
func SortResults(rs []Result) {
	slices.SortFunc(rs, func(a, b Result) int {
		switch {
		case a.Dist < b.Dist:
			return -1
		case a.Dist > b.Dist:
			return 1
		case a.ID < b.ID:
			return -1
		case a.ID > b.ID:
			return 1
		default:
			return 0
		}
	})
}

// ErrorRate returns the paper's CSSIA error metric: the fraction of the
// exact result set missing from the approximate one (|exact \ approx| / k,
// §7.1). It panics if exact is empty.
func ErrorRate(exact, approx []Result) float64 {
	if len(exact) == 0 {
		panic("knn: ErrorRate with empty exact result set")
	}
	got := make(map[uint32]struct{}, len(approx))
	for _, r := range approx {
		got[r.ID] = struct{}{}
	}
	missing := 0
	for _, r := range exact {
		if _, ok := got[r.ID]; !ok {
			missing++
		}
	}
	return float64(missing) / float64(len(exact))
}
