package core

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/par"
)

// idTable is the base index's uint32 → uint32 map from object IDs to
// storage positions (Index.idIdx), split into a fixed number of hash
// buckets, each a slice of pairs sorted by key. A lookup is one multiply
// and a binary search of ≈ n/64 pairs. It is bulk-built and never
// written after.
type idTable struct {
	buckets [idTableBuckets][]idPair
}

const idTableBuckets = 64

type idPair struct{ key, val uint32 }

// newIDTable bulk-builds the table of keys[i] → i. A counting pass sizes
// the buckets as windows of one buffer; a second pass places the pairs
// and one sort per bucket (on up to workers goroutines) orders them. A
// key listed twice is an error.
func newIDTable(keys []uint32, workers int) (*idTable, error) {
	t := new(idTable)
	var counts [idTableBuckets]int
	for _, k := range keys {
		counts[idBucket(k)]++
	}
	buf := make([]idPair, len(keys))
	off := 0
	for b, n := range counts {
		t.buckets[b] = buf[off : off : off+n]
		off += n
	}
	for i, k := range keys {
		b := &t.buckets[idBucket(k)]
		*b = append(*b, idPair{k, uint32(i)})
	}
	par.For(idTableBuckets, workers, func(lo, hi int) {
		for _, b := range t.buckets[lo:hi] {
			slices.SortFunc(b, func(p, q idPair) int { return cmp.Compare(p.key, q.key) })
		}
	})
	for _, b := range t.buckets {
		for i := 1; i < len(b); i++ {
			if b[i].key == b[i-1].key {
				return nil, fmt.Errorf("duplicate object ID %d", b[i].key)
			}
		}
	}
	return t, nil
}

// relabel maps every value v to perm[v] in place, on a table nothing
// reads yet.
func (t *idTable) relabel(perm []uint32) {
	for _, b := range t.buckets {
		for i := range b {
			b[i].val = perm[b[i].val]
		}
	}
}

// idBucket spreads keys over the buckets with the top bits of a
// Fibonacci hash, so sequential IDs and IDs sharing a shard residue
// both scatter.
func idBucket(key uint32) uint32 { return key * 0x9E3779B1 >> 26 }

// find returns key's bucket and the position of key in it, or where it
// would go.
func (t *idTable) find(key uint32) (b []idPair, i int, ok bool) {
	b = t.buckets[idBucket(key)]
	lo, hi := 0, len(b)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if b[m].key < key {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return b, lo, lo < len(b) && b[lo].key == key
}

func (t *idTable) get(key uint32) (uint32, bool) {
	b, i, ok := t.find(key)
	if !ok {
		return 0, false
	}
	return b[i].val, true
}
