package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"

	cssi "repro"
)

// oracle is the benchmark-owned brute-force exact k-NN under
// d = λ·ds/Ds_max + (1−λ)·dt/Dt_max. It serves two purposes with one
// loop: its answers are the correctness reference, and the wall time of
// one scan is the in-run unit every latency is divided by (see
// README.md, "Noise method"). It deliberately shares no code with the
// program under test — plain loops over its own contiguous copy of the
// vectors — so a kernel change in internal/vec cannot move the unit.
//
// The scan visits the rows in blocks of scanBlock, in a fixed shuffled
// order, not front to back: an index search jumps between clusters of
// about that many objects, and a neighbour's cache pressure slows such
// jumps differently from a prefetch-friendly sweep. Measured over 21
// twelve-second windows on a disturbed host, search time ÷ shuffled scan
// spread 3.7%, search time ÷ sequential scan 7.6%, search time alone 14%.
type oracle struct {
	dim          int
	dsMax, dtMax float64
	arena        []float32 // row-major, one row per slot
	xs, ys       []float64
	ids          []uint32
	dead         []bool
	pos          map[uint32]int // live id → slot
	order        []int32        // block visit order over the initial rows
}

// scanBlock is the rows per block of the scan order: 60,000 objects in
// about 5,100 hybrid clusters is 12 per cluster.
const scanBlock = 12

func newOracle(objs []cssi.Object, dim int, dsMax, dtMax float64) *oracle {
	o := &oracle{
		dim: dim, dsMax: dsMax, dtMax: dtMax,
		arena: make([]float32, 0, (len(objs)+len(objs)/8)*dim),
		pos:   make(map[uint32]int, len(objs)),
	}
	for i := range objs {
		o.insert(&objs[i])
	}
	o.order = make([]int32, len(objs)/scanBlock)
	for i := range o.order {
		o.order[i] = int32(i)
	}
	rng := rand.New(rand.NewPCG(0x5ca9, 0x0de2)) // fixed: the unit must not depend on -seed
	rng.Shuffle(len(o.order), func(i, j int) { o.order[i], o.order[j] = o.order[j], o.order[i] })
	return o
}

func (o *oracle) insert(ob *cssi.Object) {
	o.pos[ob.ID] = len(o.ids)
	o.arena = append(o.arena, ob.Vec...)
	o.xs = append(o.xs, ob.X)
	o.ys = append(o.ys, ob.Y)
	o.ids = append(o.ids, ob.ID)
	o.dead = append(o.dead, false)
}

func (o *oracle) remove(id uint32) {
	if p, ok := o.pos[id]; ok {
		o.dead[p] = true
		delete(o.pos, id)
	}
}

// apply mirrors one index mutation.
func (o *oracle) apply(op cssi.Op) {
	switch op.Kind {
	case cssi.OpInsert:
		o.insert(&op.Object)
	case cssi.OpDelete:
		o.remove(op.ID)
	case cssi.OpUpdate:
		o.remove(op.Object.ID)
		o.insert(&op.Object)
	}
}

// distAt is the combined distance from q to the object in slot p.
func (o *oracle) distAt(q *cssi.Object, lambda float64, p int) float64 {
	row := o.arena[p*o.dim : (p+1)*o.dim]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(row); i += 4 {
		d0 := float64(q.Vec[i]) - float64(row[i])
		d1 := float64(q.Vec[i+1]) - float64(row[i+1])
		d2 := float64(q.Vec[i+2]) - float64(row[i+2])
		d3 := float64(q.Vec[i+3]) - float64(row[i+3])
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	for ; i < len(row); i++ {
		d := float64(q.Vec[i]) - float64(row[i])
		s0 += d * d
	}
	dt := math.Sqrt((s0+s1)+(s2+s3)) / o.dtMax
	ds := math.Hypot(q.X-o.xs[p], q.Y-o.ys[p]) / o.dsMax
	return lambda*ds + (1-lambda)*dt
}

// knn appends the exact k nearest live objects to dst, nearest first.
// It always visits the whole arena: no bound is carried into the
// kernel, so the work — and therefore the time unit — depends only on
// the number of rows.
func (o *oracle) knn(dst []cssi.Result, q *cssi.Object, k int, lambda float64) []cssi.Result {
	h := dst[:0] // max-heap on Dist while scanning
	for _, b := range o.order {
		h = o.offer(h, q, k, lambda, int(b)*scanBlock, (int(b)+1)*scanBlock)
	}
	// Rows past the shuffled blocks: the remainder and every later insert.
	h = o.offer(h, q, k, lambda, len(o.order)*scanBlock, len(o.ids))
	sort.Slice(h, func(a, b int) bool { return h[a].Dist < h[b].Dist })
	return h
}

// offer pushes the live rows of slots [lo, hi) through the k-bounded
// max-heap h.
func (o *oracle) offer(h []cssi.Result, q *cssi.Object, k int, lambda float64, lo, hi int) []cssi.Result {
	for p := lo; p < hi; p++ {
		if o.dead[p] {
			continue
		}
		d := o.distAt(q, lambda, p)
		if len(h) < k {
			h = append(h, cssi.Result{ID: o.ids[p], Dist: d})
			for c := len(h) - 1; c > 0; {
				par := (c - 1) / 2
				if h[par].Dist >= h[c].Dist {
					break
				}
				h[par], h[c] = h[c], h[par]
				c = par
			}
			continue
		}
		if d >= h[0].Dist {
			continue
		}
		h[0] = cssi.Result{ID: o.ids[p], Dist: d}
		for c := 0; ; {
			l, big := 2*c+1, c
			if l < len(h) && h[l].Dist > h[big].Dist {
				big = l
			}
			if l+1 < len(h) && h[l+1].Dist > h[big].Dist {
				big = l + 1
			}
			if big == c {
				break
			}
			h[c], h[big] = h[big], h[c]
			c = big
		}
	}
	return h
}

// tieTol is the relative distance agreement below which two answers are
// the same answer: the index and the oracle both accumulate in float64,
// so they differ only in summation order.
const tieTol = 1e-9

func near(a, b float64) bool {
	return math.Abs(a-b) <= tieTol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// checkExact reports why got is not an exact answer to want (nil when it
// is). An answer is exact when it has the oracle's distances rank by
// rank and every returned ID is a live object at its reported distance;
// a different ID at a tied distance is therefore accepted.
func (o *oracle) checkExact(q *cssi.Object, lambda float64, got, want []cssi.Result) error {
	if len(got) != len(want) {
		return fmt.Errorf("got %d results, want %d", len(got), len(want))
	}
	seen := make(map[uint32]bool, len(got))
	for i := range got {
		if !near(got[i].Dist, want[i].Dist) {
			return fmt.Errorf("rank %d: distance %.12g, oracle %.12g", i, got[i].Dist, want[i].Dist)
		}
		p, ok := o.pos[got[i].ID]
		if !ok || seen[got[i].ID] {
			return fmt.Errorf("rank %d: id %d is not a live, distinct object", i, got[i].ID)
		}
		seen[got[i].ID] = true
		if d := o.distAt(q, lambda, p); !near(d, got[i].Dist) {
			return fmt.Errorf("rank %d: id %d reported at %.12g, is at %.12g", i, got[i].ID, got[i].Dist, d)
		}
	}
	return nil
}

// recall is the share of the oracle's k answers that got contains,
// counting a returned object within tieTol of the k-th distance as a hit.
func (o *oracle) recall(q *cssi.Object, lambda float64, got, want []cssi.Result) float64 {
	if len(want) == 0 {
		return 1
	}
	kth := want[len(want)-1].Dist
	hits := 0
	seen := make(map[uint32]bool, len(got))
	for _, r := range got {
		p, ok := o.pos[r.ID]
		if !ok || seen[r.ID] {
			continue
		}
		seen[r.ID] = true
		if d := o.distAt(q, lambda, p); d <= kth || near(d, kth) {
			hits++
		}
	}
	if hits > len(want) {
		hits = len(want)
	}
	return float64(hits) / float64(len(want))
}
