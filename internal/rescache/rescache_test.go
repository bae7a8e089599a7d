package rescache

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/knn"
)

type snap struct{ name string }

func key(k int, kw string) Key { return Key{Hash: uint64(k), K: k, Lambda: 0.5, Keywords: kw} }

func res(ids ...uint32) []knn.Result {
	out := make([]knn.Result, len(ids))
	for i, id := range ids {
		out[i] = knn.Result{ID: id, Dist: float64(id) / 10}
	}
	return out
}

func TestGetPutRoundTrip(t *testing.T) {
	c := New(8)
	s := &snap{"s1"}
	vec := []float32{1, 2, 3}
	want := res(7, 9)
	c.Put(s, key(2, ""), 1, 2, vec, want)
	got, ok := c.Get(s, key(2, ""), 1, 2, vec, nil)
	if !ok {
		t.Fatal("expected hit")
	}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("got %v want %v", got, want)
	}
	// The hit must not alias the cache's copy.
	got[0].ID = 999
	again, _ := c.Get(s, key(2, ""), 1, 2, vec, nil)
	if again[0].ID != 7 {
		t.Fatal("cache entry mutated through returned slice")
	}
	st := c.Stats()
	if st.Hits != 2 || st.Fills != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSnapshotChangeInvalidatesWholesale(t *testing.T) {
	c := New(8)
	s1, s2 := &snap{"s1"}, &snap{"s2"}
	vec := []float32{1}
	c.Put(s1, key(1, ""), 0, 0, vec, res(1))
	c.Put(s1, key(2, ""), 0, 0, vec, res(2))
	if _, ok := c.Get(s2, key(1, ""), 0, 0, vec, nil); ok {
		t.Fatal("hit across snapshot change")
	}
	st := c.Stats()
	if st.Invalidations != 1 || st.Entries != 0 {
		t.Fatalf("stats after rotation = %+v", st)
	}
	// Old-token probes after the rotation must also miss.
	if _, ok := c.Get(s1, key(2, ""), 0, 0, vec, nil); ok {
		t.Fatal("hit with stale token")
	}
}

func TestStalePutDropped(t *testing.T) {
	c := New(8)
	s1, s2 := &snap{"s1"}, &snap{"s2"}
	vec := []float32{1}
	c.Put(s2, key(1, ""), 0, 0, vec, res(1))
	// A slow request finishing against the superseded snapshot must not
	// clear s2's entries nor become servable.
	c.Put(s1, key(9, ""), 0, 0, vec, res(9))
	if _, ok := c.Get(s2, key(1, ""), 0, 0, vec, nil); !ok {
		t.Fatal("stale Put wiped current entries")
	}
	if _, ok := c.Get(s1, key(9, ""), 0, 0, vec, nil); ok {
		t.Fatal("stale Put became servable")
	}
}

func TestHashCollisionServesNoWrongAnswer(t *testing.T) {
	c := New(8)
	s := &snap{"s"}
	k := key(1, "")
	c.Put(s, k, 0, 0, []float32{1, 0}, res(1))
	// Same Key, different query content: must miss, never serve.
	if _, ok := c.Get(s, k, 0, 0, []float32{0, 1}, nil); ok {
		t.Fatal("collision served a wrong answer")
	}
	// And a replacing Put takes over the slot.
	c.Put(s, k, 0, 0, []float32{0, 1}, res(2))
	got, ok := c.Get(s, k, 0, 0, []float32{0, 1}, nil)
	if !ok || got[0].ID != 2 {
		t.Fatalf("replacement probe = %v %v", got, ok)
	}
}

func TestKeySensitivity(t *testing.T) {
	base := Key{Hash: 1, K: 10, Lambda: 0.5}
	variants := []Key{
		{Hash: 1, K: 11, Lambda: 0.5},
		{Hash: 1, K: 10, Lambda: 0.6},
		{Hash: 1, K: 10, Lambda: 0.5, Approx: true},
		{Hash: 1, K: 10, Lambda: 0.5, Route: true},
		{Hash: 1, K: 10, Lambda: 0.5, RouteTarget: 0.9},
		{Hash: 1, K: 10, Lambda: 0.5, Keywords: "cafe"},
		{Hash: 2, K: 10, Lambda: 0.5},
	}
	c := New(64)
	s := &snap{"s"}
	vec := []float32{1}
	c.Put(s, base, 0, 0, vec, res(1))
	for i, v := range variants {
		if _, ok := c.Get(s, v, 0, 0, vec, nil); ok {
			t.Fatalf("variant %d collided with base key", i)
		}
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(2)
	s := &snap{"s"}
	vec := []float32{1}
	c.Put(s, key(1, ""), 0, 0, vec, res(1))
	c.Put(s, key(2, ""), 0, 0, vec, res(2))
	// Touch 1 so 2 is the LRU victim.
	if _, ok := c.Get(s, key(1, ""), 0, 0, vec, nil); !ok {
		t.Fatal("warm entry missed")
	}
	c.Put(s, key(3, ""), 0, 0, vec, res(3))
	if _, ok := c.Get(s, key(2, ""), 0, 0, vec, nil); ok {
		t.Fatal("LRU victim survived")
	}
	for _, k := range []int{1, 3} {
		if _, ok := c.Get(s, key(k, ""), 0, 0, vec, nil); !ok {
			t.Fatalf("entry %d evicted unexpectedly", k)
		}
	}
	if st := c.Stats(); st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestHashQueryDiscriminates(t *testing.T) {
	h1 := HashQuery(1, 2, []float32{1, 2, 3})
	for i, h2 := range []uint64{
		HashQuery(1.0000001, 2, []float32{1, 2, 3}),
		HashQuery(1, 2, []float32{1, 2, 4}),
		HashQuery(2, 1, []float32{1, 2, 3}),
		HashQuery(1, 2, []float32{1, 2}),
	} {
		if h1 == h2 {
			t.Fatalf("variant %d hashed equal", i)
		}
	}
	if h1 != HashQuery(1, 2, []float32{1, 2, 3}) {
		t.Fatal("hash not deterministic")
	}
}

// TestConcurrentChurn drives readers, writers and snapshot rotations
// concurrently; run under -race this pins the locking discipline.
func TestConcurrentChurn(t *testing.T) {
	c := New(32)
	snaps := []*snap{{"a"}, {"b"}, {"c"}}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			vec := []float32{float32(w)}
			for i := 0; i < 2000; i++ {
				s := snaps[(i/64)%len(snaps)]
				k := key(i%16, fmt.Sprint(w%2))
				if got, ok := c.Get(s, k, float64(w), 0, vec, nil); ok {
					if len(got) != 1 || got[0].ID != uint32(i%16) {
						panic("wrong cached answer")
					}
				} else {
					c.Put(s, k, float64(w), 0, vec, res(uint32(i%16)))
				}
			}
		}(w)
	}
	wg.Wait()
}
