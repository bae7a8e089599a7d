package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
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
// L_s, and byDt lists member positions in L_t order. Build and Load sort
// them once (buildElems); Insert and Delete keep them sorted with one
// search and one memmove each (insertMember, removeMember), so rebuilding
// the array after a write is a single O(m) pass with no sort (mergeElems).

// byDsCmp is L_s's order: ds descending, then dt descending, then
// storage position ascending. byDtCmp is L_t's: dt descending, then ds
// descending, then position. The paper only asks for descending
// distances; the secondary keys make both orders total and make them
// agree on every pair either one ties. Such a pair precedes in both
// lists, so it reaches the array in list order — and renumbering storage
// into array order (layoutClusterMajor) leaves both lists sorted: the
// array a fresh Build or Load lays out is exactly the merge of the lists
// it maintains afterwards.
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

// buildElems orders c from scratch — members into L_s, byDt into L_t —
// and merges the array.
func (c *hybrid) buildElems() {
	slices.SortFunc(c.members, byDsCmp)
	c.byDt = make([]uint32, len(c.members))
	for i := range c.byDt {
		c.byDt[i] = uint32(i)
	}
	slices.SortFunc(c.byDt, func(a, b uint32) int { return byDtCmp(c.members[a], c.members[b]) })
	c.mergeElems()
}

// mergeElems rebuilds the array from the two lists. Round pos pairs
// L_s's member pos with L_t's member b = byDt[pos]. Member pos is new
// unless L_t listed it in an earlier round; b is new exactly when b > pos
// (L_s lists it no earlier than this round and L_t nowhere else), and
// only those are marked. The array is freshly allocated: a COW clone
// shares the old one with its parent.
func (c *hybrid) mergeElems() {
	n := len(c.members)
	if n == 0 {
		c.elems = nil
		return
	}
	ms := c.members
	fromDt := newBitset(n)
	elems := make([]element, 0, n)
	for pos, b := range c.byDt[:n] {
		thrDs, thrDt := ms[pos].ds, ms[b].dt
		if !fromDt.get(uint32(pos)) {
			elems = append(elems, element{idx: ms[pos].idx, ds: thrDs, dt: thrDt})
		}
		if int(b) > pos {
			fromDt.set(b)
			elems = append(elems, element{idx: ms[b].idx, ds: thrDs, dt: thrDt})
		}
	}
	c.elems = elems
}

// insertMember adds m to both lists at its sorted place.
func (c *hybrid) insertMember(m member) {
	p := sort.Search(len(c.members), func(i int) bool { return byDsCmp(m, c.members[i]) < 0 })
	c.members = slices.Insert(c.members, p, m)
	for i, mi := range c.byDt {
		if int(mi) >= p {
			c.byDt[i] = mi + 1
		}
	}
	q := sort.Search(len(c.byDt), func(i int) bool { return byDtCmp(m, c.members[c.byDt[i]]) < 0 })
	c.byDt = slices.Insert(c.byDt, q, uint32(p))
}

// removeMember drops the member at storage position idx, which c lists,
// from both lists.
func (c *hybrid) removeMember(idx uint32) {
	p := slices.IndexFunc(c.members, func(m member) bool { return m.idx == idx })
	c.members = slices.Delete(c.members, p, p+1)
	q := 0
	for i, mi := range c.byDt {
		switch {
		case int(mi) == p:
			q = i
		case int(mi) > p:
			c.byDt[i] = mi - 1
		}
	}
	c.byDt = slices.Delete(c.byDt, q, q+1)
}

// checkOrders verifies what the maintained lists promise: members
// strictly in L_s order, byDt a permutation of member positions strictly
// in L_t order, and the array equal to their merge, element for element.
func (c *hybrid) checkOrders() error {
	n := len(c.members)
	if len(c.byDt) != n {
		return fmt.Errorf("%d byDt entries for %d members", len(c.byDt), n)
	}
	for i := 1; i < n; i++ {
		if byDsCmp(c.members[i-1], c.members[i]) >= 0 {
			return fmt.Errorf("members out of L_s order at %d", i)
		}
	}
	listed := newBitset(n)
	for i, mi := range c.byDt {
		if int(mi) >= n || listed.get(mi) {
			return fmt.Errorf("byDt entry %d names member %d: out of range or listed twice", i, mi)
		}
		listed.set(mi)
		if i > 0 && byDtCmp(c.members[c.byDt[i-1]], c.members[mi]) >= 0 {
			return fmt.Errorf("byDt out of L_t order at %d", i)
		}
	}
	want := hybrid{members: c.members, byDt: c.byDt}
	want.mergeElems()
	if !slices.Equal(c.elems, want.elems) {
		return fmt.Errorf("elems differ from the merge of the maintained lists")
	}
	return nil
}
