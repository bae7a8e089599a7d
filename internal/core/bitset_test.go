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
	ref := make([]bool, 0, n)
	b := newBitset(0)
	for step := 0; step < 5000; step++ {
		switch op := rng.Intn(3); {
		case op == 0 && len(ref) < n: // append a bit
			ref = append(ref, false)
			b = b.grown(len(ref))
		case op == 1 && len(ref) > 0: // set
			i := uint32(rng.Intn(len(ref)))
			ref[i] = true
			b.set(i)
		case len(ref) > 0: // probe
			i := uint32(rng.Intn(len(ref)))
			if b.get(i) != ref[i] {
				t.Fatalf("step %d: bit %d = %v, reference %v", step, i, b.get(i), ref[i])
			}
		}
	}
	want := 0
	for i, v := range ref {
		if b.get(uint32(i)) != v {
			t.Fatalf("final: bit %d = %v, reference %v", i, b.get(uint32(i)), v)
		}
		if v {
			want++
		}
	}
	if got := b.count(); got != want {
		t.Fatalf("count() = %d, reference %d", got, want)
	}
	// Range counts, word-aligned or not, empty ranges included.
	for range 2000 {
		lo := rng.Intn(len(ref) + 1)
		hi := lo + rng.Intn(len(ref)-lo+1)
		want := 0
		for _, v := range ref[lo:hi] {
			if v {
				want++
			}
		}
		if got := b.countRange(lo, hi); got != want {
			t.Fatalf("countRange(%d, %d) = %d, reference %d", lo, hi, got, want)
		}
	}
}

// TestBitsetCloneIsolation checks a clone's writes never leak into the
// original (the property the COW discipline rests on).
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
	// Growing a clone (exact capacity) must reallocate, never extend
	// shared backing in place.
	g := b.clone().grown(64 * 10)
	g.set(600)
	if len(b) != 3 {
		t.Fatalf("grow extended the original: %d words", len(b))
	}
}
