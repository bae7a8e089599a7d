package rtree

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/geo"
)

func randPoints(rng *rand.Rand, n, dims int) []Entry {
	out := make([]Entry, n)
	for i := range out {
		p := make([]float64, dims)
		for j := range p {
			p[j] = rng.Float64()
		}
		out[i] = Entry{Rect: geo.RectFromPoint(p), ID: uint32(i)}
	}
	return out
}

func pointOf(e Entry) []float64 { return e.Rect.Lo }

// knnBrute returns the ids of the k nearest points to q by brute force.
func knnBrute(entries []Entry, q []float64, k int) []float64 {
	type pair struct {
		d  float64
		id uint32
	}
	ps := make([]pair, len(entries))
	for i, e := range entries {
		var s float64
		for j, v := range pointOf(e) {
			s += (v - q[j]) * (v - q[j])
		}
		ps[i] = pair{math.Sqrt(s), e.ID}
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].d < ps[j].d })
	if k > len(ps) {
		k = len(ps)
	}
	out := make([]float64, k)
	for i := 0; i < k; i++ {
		out[i] = ps[i].d
	}
	return out
}

// knnTree runs best-first k-NN over the tree with Euclidean point
// distance and returns the k result distances in order.
func knnTree(t *Tree, q []float64, k int) []float64 {
	var out []float64
	t.BestFirst(
		func(r geo.Rect) float64 { return r.MinDist(q) },
		func(id uint32, lb float64) bool {
			out = append(out, lb) // for points, lb == exact distance
			return len(out) < k
		})
	return out
}

func TestBulkLoadEmpty(t *testing.T) {
	tr := BulkLoad(nil, 2, 0)
	if tr.size != 0 {
		t.Fatalf("Size = %d", tr.size)
	}
	visited := tr.BestFirst(func(geo.Rect) float64 { return 0 }, func(uint32, float64) bool { return true })
	if visited != 0 {
		t.Fatal("traversal of empty tree visited nodes")
	}
}

func TestBulkLoadValidates(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	for _, n := range []int{1, 5, 33, 100, 1000} {
		for _, dims := range []int{1, 2, 3, 5} {
			tr := BulkLoad(randPoints(rng, n, dims), dims, 16)
			if tr.size != n {
				t.Fatalf("n=%d dims=%d Size=%d", n, dims, tr.size)
			}
			if err := tr.Validate(); err != nil {
				t.Fatalf("n=%d dims=%d: %v", n, dims, err)
			}
		}
	}
}

func TestKNNMatchesBruteForceBulk(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	entries := randPoints(rng, 800, 2)
	tr := BulkLoad(entries, 2, 16)
	for trial := 0; trial < 20; trial++ {
		q := []float64{rng.Float64(), rng.Float64()}
		want := knnBrute(entries, q, 10)
		got := knnTree(tr, q, 10)
		if len(got) != len(want) {
			t.Fatalf("got %d results", len(got))
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				t.Fatalf("trial %d result %d: %v vs %v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestBestFirstEmitsInAscendingOrder(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 6))
	entries := randPoints(rng, 400, 2)
	tr := BulkLoad(entries, 2, 16)
	q := []float64{0.3, 0.7}
	prev := -1.0
	tr.BestFirst(
		func(r geo.Rect) float64 { return r.MinDist(q) },
		func(id uint32, lb float64) bool {
			if lb < prev-1e-12 {
				t.Fatalf("emitted out of order: %v after %v", lb, prev)
			}
			prev = lb
			return true
		})
}

func TestRectEntries(t *testing.T) {
	// Non-degenerate rectangles (boxes) also work.
	entries := []Entry{
		{Rect: geo.Rect{Lo: []float64{0, 0}, Hi: []float64{1, 1}}, ID: 1},
		{Rect: geo.Rect{Lo: []float64{5, 5}, Hi: []float64{6, 7}}, ID: 2},
		{Rect: geo.Rect{Lo: []float64{2, 2}, Hi: []float64{3, 3}}, ID: 3},
	}
	tr := BulkLoad(entries, 2, 4)
	q := []float64{5.5, 6}
	var first uint32
	tr.BestFirst(
		func(r geo.Rect) float64 { return r.MinDist(q) },
		func(id uint32, lb float64) bool { first = id; return false })
	if first != 2 {
		t.Fatalf("nearest rect = %d, want 2", first)
	}
}

// Property: for random data, bulk and insert trees agree with brute force
// on the nearest neighbor.
func TestNearestNeighborProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 77))
		n := 10 + rng.IntN(300)
		dims := 1 + rng.IntN(4)
		entries := randPoints(rng, n, dims)
		tr := BulkLoad(entries, dims, 4+rng.IntN(28))
		q := make([]float64, dims)
		for j := range q {
			q[j] = rng.Float64()*2 - 0.5
		}
		want := knnBrute(entries, q, 1)
		got := knnTree(tr, q, 1)
		return len(got) == 1 && math.Abs(got[0]-want[0]) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Validate checks structural invariants: child rectangles are
// contained in their parent entry rectangle, leaves are at a uniform
// depth, fan-out respects maxEntries, and the entry count matches the
// loaded one.
func (t *Tree) Validate() error {
	count := 0
	leafDepth := -1
	var walk func(n *node, depth int, bound *geo.Rect) error
	walk = func(n *node, depth int, bound *geo.Rect) error {
		if len(n.entries) > t.maxEntries {
			return fmt.Errorf("rtree: node with %d entries exceeds max %d", len(n.entries), t.maxEntries)
		}
		if n.leaf {
			if leafDepth == -1 {
				leafDepth = depth
			} else if depth != leafDepth {
				return fmt.Errorf("rtree: leaves at depths %d and %d", leafDepth, depth)
			}
		}
		for i := range n.entries {
			e := &n.entries[i]
			if bound != nil {
				for d := 0; d < t.dims; d++ {
					if e.rect.Lo[d] < bound.Lo[d]-1e-12 || e.rect.Hi[d] > bound.Hi[d]+1e-12 {
						return fmt.Errorf("rtree: child rect escapes parent at dim %d", d)
					}
				}
			}
			if n.leaf {
				count++
			} else {
				if e.child == nil {
					return fmt.Errorf("rtree: internal entry without child")
				}
				want := nodeRect(e.child, t.dims)
				for d := 0; d < t.dims; d++ {
					if want.Lo[d] < e.rect.Lo[d]-1e-12 || want.Hi[d] > e.rect.Hi[d]+1e-12 {
						return fmt.Errorf("rtree: stored rect does not cover child at dim %d", d)
					}
				}
				if err := walk(e.child, depth+1, &e.rect); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := walk(t.root, 0, nil); err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("rtree: counted %d entries, loaded %d", count, t.size)
	}
	return nil
}
