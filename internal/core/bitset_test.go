package core

import (
	"math/rand"
	"testing"
)

// TestBitsetEquivalence drives a bitset and a []bool reference through
// the same random op stream and checks every observable agrees.
func TestBitsetEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n = 1000
	ref := make([]bool, n)
	b := newBitset(n)
	for step := 0; step < 5000; step++ {
		i := uint32(rng.Intn(n))
		if rng.Intn(2) == 0 {
			ref[i] = true
			b.set(i)
		} else if b.get(i) != ref[i] {
			t.Fatalf("step %d: bit %d = %v, reference %v", step, i, b.get(i), ref[i])
		}
	}
	for i, v := range ref {
		if b.get(uint32(i)) != v {
			t.Fatalf("final: bit %d = %v, reference %v", i, b.get(uint32(i)), v)
		}
	}
}

// TestBitsetCloneIsolation checks a clone's writes never leak into the
// original (what a forked overlay's tombstones rest on).
func TestBitsetCloneIsolation(t *testing.T) {
	b := newBitset(130)
	b.set(5)
	b.set(129)
	c := b.clone()
	c.set(6)
	if !b.get(5) || b.get(6) {
		t.Fatal("clone write mutated the original")
	}
	if !c.get(6) || !c.get(5) || !c.get(129) {
		t.Fatal("clone lost its own state")
	}
}
