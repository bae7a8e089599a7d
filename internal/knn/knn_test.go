package knn

import (
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewHeapPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for k=0")
		}
	}()
	NewHeap(0)
}

func TestHeapKeepsKSmallest(t *testing.T) {
	h := NewHeap(3)
	for i, d := range []float64{5, 1, 4, 2, 8, 3} {
		h.Push(Result{ID: uint32(i), Dist: d})
	}
	got := h.Sorted()
	if len(got) != 3 {
		t.Fatalf("len = %d", len(got))
	}
	wantDists := []float64{1, 2, 3}
	for i, r := range got {
		if r.Dist != wantDists[i] {
			t.Fatalf("result %d dist = %v, want %v", i, r.Dist, wantDists[i])
		}
	}
}

func TestHeapBound(t *testing.T) {
	h := NewHeap(2)
	if _, ok := h.Bound(); ok {
		t.Fatal("Bound should be unavailable before k results")
	}
	h.Push(Result{ID: 1, Dist: 3})
	if _, ok := h.Bound(); ok {
		t.Fatal("Bound should be unavailable with 1 of 2 results")
	}
	h.Push(Result{ID: 2, Dist: 7})
	if b, ok := h.Bound(); !ok || b != 7 {
		t.Fatalf("Bound = %v,%v want 7,true", b, ok)
	}
	h.Push(Result{ID: 3, Dist: 5})
	if b, _ := h.Bound(); b != 5 {
		t.Fatalf("Bound after improvement = %v, want 5", b)
	}
}

func TestHeapPushReturnValue(t *testing.T) {
	h := NewHeap(1)
	if !h.Push(Result{ID: 1, Dist: 4}) {
		t.Fatal("first push should be kept")
	}
	if h.Push(Result{ID: 2, Dist: 4}) {
		t.Fatal("equal distance should not displace the incumbent")
	}
	if !h.Push(Result{ID: 3, Dist: 1}) {
		t.Fatal("better candidate should be kept")
	}
	got := h.Sorted()
	if len(got) != 1 || got[0].ID != 3 {
		t.Fatalf("final heap %v", got)
	}
}

func TestSortedTieBreaksOnID(t *testing.T) {
	h := NewHeap(3)
	h.Push(Result{ID: 9, Dist: 1})
	h.Push(Result{ID: 2, Dist: 1})
	h.Push(Result{ID: 5, Dist: 1})
	got := h.Sorted()
	if got[0].ID != 2 || got[1].ID != 5 || got[2].ID != 9 {
		t.Fatalf("tie-break order wrong: %v", got)
	}
}

// Property: heap result equals brute-force top-k.
func TestHeapMatchesBruteForce(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 5))
		n := 1 + rng.IntN(200)
		k := 1 + rng.IntN(20)
		all := make([]Result, n)
		h := NewHeap(k)
		for i := range all {
			all[i] = Result{ID: uint32(i), Dist: float64(rng.IntN(50))} // ties likely
			h.Push(all[i])
		}
		sort.Slice(all, func(i, j int) bool { return all[i].Dist < all[j].Dist })
		want := k
		if n < k {
			want = n
		}
		got := h.Sorted()
		if len(got) != want {
			return false
		}
		// Compare the distance multiset (ties make IDs ambiguous).
		for i := 0; i < want; i++ {
			if got[i].Dist != all[i].Dist {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestErrorRate(t *testing.T) {
	exact := []Result{{1, 0.1}, {2, 0.2}, {3, 0.3}, {4, 0.4}}
	if e := ErrorRate(exact, exact); e != 0 {
		t.Fatalf("self error = %v", e)
	}
	approx := []Result{{1, 0.1}, {2, 0.2}, {9, 0.35}, {4, 0.4}}
	if e := ErrorRate(exact, approx); e != 0.25 {
		t.Fatalf("error = %v, want 0.25", e)
	}
	if e := ErrorRate(exact, nil); e != 1 {
		t.Fatalf("all-missing error = %v, want 1", e)
	}
}

func TestErrorRatePanicsOnEmptyExact(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ErrorRate(nil, nil)
}

// PushAux keeps exactly what Push keeps, ties included, each result with
// its own companion value; MaxAux is the largest held one, and Reset
// empties the column. After DropAux the heap takes Push and keeps what
// the plain one keeps.
func TestHeapPushAuxMatchesPush(t *testing.T) {
	aux := func(r Result) float64 { return float64(r.ID%97) - 0.5*r.Dist }
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 7))
		k := 1 + rng.IntN(20)
		plain, withAux := NewHeap(k), NewHeap(k)
		for round := 0; round < 2; round++ {
			plain.Reset(k)
			withAux.Reset(k)
			if withAux.MaxAux() != math.Inf(-1) {
				return false
			}
			for i, n := 0, 1+rng.IntN(200); i < n; i++ {
				r := Result{ID: uint32(rng.IntN(1000)), Dist: float64(rng.IntN(30))} // ties likely
				if plain.Push(r) != withAux.PushAux(r, aux(r)) {
					return false
				}
			}
			if !slices.Equal(plain.Items(), withAux.Items()) {
				return false
			}
			mx := math.Inf(-1)
			for i, r := range withAux.Items() {
				if withAux.aux[i] != aux(r) {
					return false
				}
				mx = max(mx, aux(r))
			}
			if withAux.MaxAux() != mx {
				return false
			}
			withAux.DropAux()
			for i, n := 0, rng.IntN(50); i < n; i++ {
				r := Result{ID: uint32(rng.IntN(1000)), Dist: float64(rng.IntN(30))}
				if plain.Push(r) != withAux.Push(r) {
					return false
				}
			}
			if !slices.Equal(plain.Items(), withAux.Items()) || withAux.MaxAux() != math.Inf(-1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
