package core

// bitset is a packed bitmap over positions — the representation of the
// overlay's base tombstones and of the merge's and the invariant
// checker's visited sets. Packing 64 membership flags per word keeps the
// tombstone test one word load per row, and the membership check stays
// a shift+mask. Callers maintain the covering invariant: the word slice
// spans every position they index.
type bitset []uint64

// newBitset returns a zeroed bitset covering n bits.
func newBitset(n int) bitset {
	return make(bitset, (n+63)>>6)
}

// get reports whether bit i is set.
func (b bitset) get(i uint32) bool {
	return b[i>>6]>>(i&63)&1 != 0
}

// set sets bit i.
func (b bitset) set(i uint32) {
	b[i>>6] |= 1 << (i & 63)
}

// clone returns a private deep copy.
func (b bitset) clone() bitset {
	return append(bitset(nil), b...)
}
