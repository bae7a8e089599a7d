package core

import (
	"cmp"
	"fmt"
	"slices"
)

// The query-time array A of a hybrid cluster (§4.1) is a Threshold-
// Algorithm merge of two lists of the members: L_s, by descending
// spatial distance to the spatial centroid, and L_t, by descending
// semantic distance to the semantic centroid. The merge takes one pair
// per round and appends each object at its first occurrence, tagged with
// the round's (ds, dt) threshold pair.
//
// The resulting array has one element per member and two invariants that
// query processing relies on (Lemma 4.5 and §4.3):
//
//  1. conservativeness — for element e of object o,
//     d(o,C) ≤ λ·e.ds + (1−λ)·e.dt for every λ ∈ [0,1], because o occurs
//     at or after the round position in both descending lists;
//  2. monotonicity — e.ds and e.dt are non-increasing along the array, so
//     once d(q,C) − bound > U holds it holds for every later element.
//
// A cluster keeps both lists, not just their merge: members itself is
// L_s, as storage positions with their dt beside them (structure of
// arrays), and byDt lists member positions in L_t order. A member's ds
// is not kept: it is one 2-D distance from the coordinate arena, and the
// list operations take it as a function ds(p) of L_s position p
// (Index.dsOf), computed by the spatialToCent Build used, so every
// threshold is bit for bit what a stored ds would give. dt stays stored
// because recomputing it is a full-dimensional kernel per member. derive
// sorts the lists once per base (buildElems); no write touches them
// afterwards.

// byDsCmp is L_s's order: ds descending, then dt descending, then
// storage position ascending. byDtCmp is L_t's: dt descending, then ds
// descending, then position. The paper only asks for descending
// distances; the secondary keys make both orders total and make them
// agree on every pair either one ties. Such a pair precedes in both
// lists, so it reaches the array in list order — and renumbering storage
// into array order (layoutClusterMajor) leaves both lists sorted: the
// array derive lays out is exactly the merge of the lists it keeps.
func byDsCmp(a, b member) int {
	if c := cmp.Compare(b.ds, a.ds); c != 0 {
		return c
	}
	if c := cmp.Compare(b.dt, a.dt); c != 0 {
		return c
	}
	return cmp.Compare(a.idx, b.idx)
}

func byDtCmp(a, b member) int {
	if c := cmp.Compare(b.dt, a.dt); c != 0 {
		return c
	}
	if c := cmp.Compare(b.ds, a.ds); c != 0 {
		return c
	}
	return cmp.Compare(a.idx, b.idx)
}

// at returns L_s's member p with its distances.
func (c *hybrid) at(p int, ds func(p int) float64) member {
	return member{idx: c.members[p], ds: ds(p), dt: c.dt[p]}
}

// buildElems orders c from scratch — ms, its members in any order, sorted
// into L_s and stored as members and dt, byDt into L_t — and merges the
// array. The lists fill the windows c holds when they have ms's length
// (orderClusters), else fresh ones.
func (c *hybrid) buildElems(ms []member) {
	slices.SortFunc(ms, byDsCmp)
	n := len(ms)
	if len(c.members) != n {
		c.members, c.dt, c.byDt = make([]uint32, n), make([]float64, n), make([]uint32, n)
	}
	for i, m := range ms {
		c.members[i], c.dt[i], c.byDt[i] = m.idx, m.dt, uint32(i)
	}
	slices.SortFunc(c.byDt, func(a, b uint32) int { return byDtCmp(ms[a], ms[b]) })
	c.mergeElems(func(p int) float64 { return ms[p].ds })
}

// mergeElems rebuilds the array from the two lists. Round pos pairs
// L_s's member pos with L_t's member b = byDt[pos]. Member pos is new
// unless L_t listed it in an earlier round; b is new exactly when b > pos
// (L_s lists it no earlier than this round and L_t nowhere else), and
// only those are marked. The array is freshly allocated.
func (c *hybrid) mergeElems(ds func(p int) float64) {
	n := len(c.members)
	if n == 0 {
		c.elems = nil
		return
	}
	fromDt := newBitset(n)
	elems := make([]element, 0, n)
	for pos, b := range c.byDt[:n] {
		thrDs, thrDt := ds(pos), c.dt[b]
		if !fromDt.get(uint32(pos)) {
			elems = append(elems, element{idx: c.members[pos], ds: thrDs, dt: thrDt})
		}
		if int(b) > pos {
			fromDt.set(b)
			elems = append(elems, element{idx: c.members[b], ds: thrDs, dt: thrDt})
		}
	}
	c.elems = elems
}

// checkOrders verifies what the maintained lists promise: members
// strictly in L_s order, byDt a permutation of member positions strictly
// in L_t order, and the array equal to their merge, element for element.
func (c *hybrid) checkOrders(ds func(p int) float64) error {
	n := len(c.members)
	if len(c.dt) != n || len(c.byDt) != n {
		return fmt.Errorf("%d dt and %d byDt entries for %d members", len(c.dt), len(c.byDt), n)
	}
	ms := make([]member, n)
	for p := range ms {
		ms[p] = c.at(p, ds)
	}
	for i := 1; i < n; i++ {
		if byDsCmp(ms[i-1], ms[i]) >= 0 {
			return fmt.Errorf("members out of L_s order at %d", i)
		}
	}
	listed := newBitset(n)
	for i, mi := range c.byDt {
		if int(mi) >= n || listed.get(mi) {
			return fmt.Errorf("byDt entry %d names member %d: out of range or listed twice", i, mi)
		}
		listed.set(mi)
		if i > 0 && byDtCmp(ms[c.byDt[i-1]], ms[mi]) >= 0 {
			return fmt.Errorf("byDt out of L_t order at %d", i)
		}
	}
	want := hybrid{members: c.members, dt: c.dt, byDt: c.byDt}
	want.mergeElems(func(p int) float64 { return ms[p].ds })
	if !slices.Equal(c.elems, want.elems) {
		return fmt.Errorf("elems differ from the merge of the maintained lists")
	}
	return nil
}
