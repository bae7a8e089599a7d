package core

import "math/bits"

// bitset is a packed bitmap over positions — the representation of the
// overlay's tombstone and dead sets and of its group chunks' ownership.
// Packing 64 membership flags per word makes the per-clone copy and the
// linear liveness scans 8× smaller than a []bool, and the hot membership
// check stays a shift+mask.
//
// Delta clones share the words and never write them; a delta that must
// write shared words deep-copies them via clone() first. Callers
// maintain the covering invariant — the word slice always spans every
// storage position they index (grown grows it).
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

// grown returns b extended with zero words until it covers n bits.
// Growth reallocates whenever the capacity is exact (clone() copies are),
// so a delta growing its bitmap never writes backing shared with a
// sibling.
func (b bitset) grown(n int) bitset {
	want := (n + 63) >> 6
	for len(b) < want {
		b = append(b, 0)
	}
	return b
}

// clone returns a private deep copy.
func (b bitset) clone() bitset {
	return append(bitset(nil), b...)
}

// count returns the number of set bits.
func (b bitset) count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// countRange returns the number of set bits among bits [lo, hi).
func (b bitset) countRange(lo, hi int) int {
	if lo >= hi {
		return 0
	}
	lw, hw := lo>>6, (hi-1)>>6
	first := b[lw] &^ (1<<(lo&63) - 1)
	last := ^uint64(0) >> (63 - (hi-1)&63)
	if lw == hw {
		return bits.OnesCount64(first & last)
	}
	n := bits.OnesCount64(first) + bits.OnesCount64(b[hw]&last)
	for _, w := range b[lw+1 : hw] {
		n += bits.OnesCount64(w)
	}
	return n
}
