package core

import "sort"

// Persistent (clone-in-O(1)) containers for the write overlay's mutable
// state. Both follow one discipline: a struct copy shares every backing
// array with its source and owns none of them; before its first write
// to a piece (a hash bucket, a chunk) the copy replaces that piece with
// a private one and records the ownership in a bitmask, so later writes
// of the same clone go in place. overlayDelta.clone clears the masks of
// the copy, and overlayDelta.beginWrite clears the source's once it has
// been cloned — see there.

// idTable is a uint32 → uint32 map split into a fixed number of hash
// buckets, each a slice of pairs sorted by key. A lookup is one multiply
// and a binary search of ≈ n/64 pairs; a write copies one bucket.
type idTable struct {
	buckets [idTableBuckets][]idPair
	owned   uint64 // bit b: buckets[b]'s backing is private to this copy
}

const idTableBuckets = 64 // one ownership word

type idPair struct{ key, val uint32 }

// idBucket spreads keys over the buckets with the top bits of a
// Fibonacci hash, so sequential IDs and IDs sharing a shard residue
// both scatter.
func idBucket(key uint32) uint32 { return key * 0x9E3779B1 >> 26 }

func (t *idTable) find(key uint32) (b []idPair, i int, ok bool) {
	b = t.buckets[idBucket(key)]
	i = sort.Search(len(b), func(j int) bool { return b[j].key >= key })
	return b, i, i < len(b) && b[i].key == key
}

func (t *idTable) get(key uint32) (uint32, bool) {
	b, i, ok := t.find(key)
	if !ok {
		return 0, false
	}
	return b[i].val, true
}

// own returns key's bucket with a backing array no other copy can see,
// with room for one more pair.
func (t *idTable) own(key uint32) *[]idPair {
	bi := idBucket(key)
	b := &t.buckets[bi]
	if t.owned>>bi&1 == 0 {
		*b = append(make([]idPair, 0, len(*b)+1), *b...)
		t.owned |= 1 << bi
	}
	return b
}

// put inserts key (which must be absent) with val.
func (t *idTable) put(key, val uint32) {
	_, i, _ := t.find(key)
	b := t.own(key)
	*b = append(*b, idPair{})
	copy((*b)[i+1:], (*b)[i:])
	(*b)[i] = idPair{key, val}
}

// del removes key (which must be present).
func (t *idTable) del(key uint32) {
	_, i, _ := t.find(key)
	b := t.own(key)
	*b = append((*b)[:i], (*b)[i+1:]...)
}

// groupVec is the overlay's group list: an append-only vector of
// overlayGroup in fixed-size chunks, indexed in creation order. A clone
// copies the chunk pointers (|groups|/64 words); a write copies the one
// chunk it touches.
type groupVec struct {
	chunks []*[groupChunk]overlayGroup
	owned  bitset // bit c: chunks[c] is private to this copy (nil = none)
	n      int
}

const groupChunk = 64

func (v *groupVec) clone() groupVec {
	return groupVec{chunks: append([]*[groupChunk]overlayGroup(nil), v.chunks...), n: v.n}
}

// at returns group i for reading.
func (v *groupVec) at(i int) *overlayGroup { return &v.chunks[i/groupChunk][i%groupChunk] }

// mut returns group i for writing, first replacing its chunk with a
// private copy when this vector does not own it. The copy's member lists
// are clipped to their length, so an append to one reallocates it — the
// shared backing may already hold a sibling's append past that length.
func (v *groupVec) mut(i int) *overlayGroup {
	c := i / groupChunk
	v.owned = v.owned.grown(len(v.chunks))
	if !v.owned.get(uint32(c)) {
		nc := *v.chunks[c]
		for j := range nc {
			nc[j].members = nc[j].members[:len(nc[j].members):len(nc[j].members)]
		}
		v.chunks[c] = &nc
		v.owned.set(uint32(c))
	}
	return &v.chunks[c][i%groupChunk]
}

// push appends g and returns its index.
func (v *groupVec) push(g overlayGroup) int {
	i := v.n
	if i%groupChunk == 0 {
		v.chunks = append(v.chunks, new([groupChunk]overlayGroup))
		v.owned = v.owned.grown(len(v.chunks))
		v.owned.set(uint32(i / groupChunk))
	}
	v.n++
	*v.mut(i) = g
	return i
}
