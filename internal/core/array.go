package core

import (
	"cmp"
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
// A cluster keeps only the array. derive sorts each cluster's members
// into the two lists, merges them and drops them (buildElems); no write
// touches a base's arrays afterwards. CheckInvariants repeats the sort
// and the merge over each cluster's rows with their distances recomputed
// and requires the stored array, element for element.

// byDsCmp is L_s's order: ds descending, then dt descending, then
// storage position ascending. byDtCmp is L_t's: dt descending, then ds
// descending, then position. The paper only asks for descending
// distances; the secondary keys make both orders total and make them
// agree on every pair either one ties. Such a pair precedes in both
// lists, so it reaches the array in list order — and renumbering storage
// into array order (layoutClusterMajor) leaves both lists sorted: the
// array derive lays out is exactly the merge of its rows' lists, which
// is what CheckInvariants recomputes.
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

// buildElems merges c's array from ms, its members in any order: it
// sorts ms into L_s and a permutation of it into L_t, and stores only
// the merge.
func (c *hybrid) buildElems(ms []member) {
	slices.SortFunc(ms, byDsCmp)
	lt := make([]uint32, len(ms))
	for i := range lt {
		lt[i] = uint32(i)
	}
	slices.SortFunc(lt, func(a, b uint32) int { return byDtCmp(ms[a], ms[b]) })
	c.elems = mergeElems(ms, lt)
}

// mergeElems returns the array of the lists ls (L_s) and lt (L_t, as
// positions in ls). Round pos pairs L_s's member pos with L_t's member
// b = lt[pos]. Member pos is new unless L_t listed it in an earlier
// round; b is new exactly when b > pos (L_s lists it no earlier than
// this round and L_t nowhere else), and only those are marked.
func mergeElems(ls []member, lt []uint32) []element {
	n := len(ls)
	if n == 0 {
		return nil
	}
	fromDt := newBitset(n)
	elems := make([]element, 0, n)
	for pos, b := range lt {
		thrDs, thrDt := ls[pos].ds, ls[b].dt
		if !fromDt.get(uint32(pos)) {
			elems = append(elems, element{idx: ls[pos].idx, ds: thrDs, dt: thrDt})
		}
		if int(b) > pos {
			fromDt.set(b)
			elems = append(elems, element{idx: ls[b].idx, ds: thrDs, dt: thrDt})
		}
	}
	return elems
}
