// Package rescache is the snapshot-keyed result cache of the serving
// layer: answers keyed by (query, K, λ, algorithm knobs, keyword set,
// shape) and invalidated wholesale by snapshot identity.
//
// The invalidation contract is what makes the cache trivially correct
// under writes. Every lookup and fill carries an opaque snapshot token
// — the identity (pointer) of the immutable published snapshot the
// request searches. The cache serves an entry only to a request whose
// token is identical to the one the entry was computed against, and
// the moment a request presents a different token (i.e. a writer,
// compaction, or rebuild published a new snapshot) the whole map is
// discarded. A hit therefore proves the cached answer was computed
// against the very snapshot the request would otherwise search, so it
// is bit-identical to the uncached answer by the determinism of the
// search itself; writers never need to enumerate affected entries.
//
// Tokens double as liveness pins: entries hold their token (and the
// cache holds the current one), so the snapshot object behind a token
// stays reachable while any entry references it and its address can
// never be recycled into a colliding identity. The cost is that the
// cache keeps at most one superseded snapshot generation alive between
// a publication and the next probe.
//
// Key hashing is only a routing hint: entries store the query they
// answer (coordinates and vector) and a probe compares them, so a
// 64-bit hash collision degrades to a miss, never to a wrong answer.
package rescache

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/knn"
)

// Key identifies one cacheable request shape. Every field that changes
// the answer participates: the query content hash, the neighbor count,
// the distance weight, each algorithm knob, the canonicalized keyword
// set, and the shape. Two requests with different modes or keyword sets can
// never share an entry because the map key differs; two different
// queries that collide in Hash are separated by the stored-query
// comparison at probe time.
type Key struct {
	// Hash is the 64-bit FNV-1a digest of the query's coordinates and
	// vector (see HashQuery).
	Hash   uint64
	K      int
	Lambda float64
	// Approx mirrors the request's algorithm switch.
	Approx bool
	// Keywords is the canonical keyword set: lowercased, sorted, joined
	// with NUL (empty for unconstrained requests).
	Keywords string
	// Radius and Window (LoX, LoY, HiX, HiY) are a range or window
	// request's shape; Ranged and Windowed tell them from a plain k-NN
	// request, whose shape fields are all zero.
	Ranged, Windowed bool
	Radius           float64
	Window           [4]float64
}

// HashQuery is the 64-bit FNV-1a digest of a query's location and
// vector bits, the Hash field of Key.
func HashQuery(x, y float64, vec []float32) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	mix(math.Float64bits(x))
	mix(math.Float64bits(y))
	for _, f := range vec {
		v := uint64(math.Float32bits(f))
		for i := 0; i < 4; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	return h
}

// entry is one cached answer plus the exact query it answers and the
// snapshot token it was computed against.
type entry struct {
	snap any
	x, y float64
	vec  []float32
	res  []knn.Result
	// LRU links (index into Cache.ent; -1 terminates).
	prev, next int
	key        Key
}

// Stats is a point-in-time snapshot of the cache's counters.
type Stats struct {
	// Hits and Misses count Get outcomes; Fills counts Put insertions
	// and Evictions LRU displacements.
	Hits, Misses, Fills, Evictions int64
	// Invalidations counts wholesale clears triggered by a snapshot
	// change.
	Invalidations int64
	// Entries is the current live entry count.
	Entries int
}

// HitRatio is Hits/(Hits+Misses), 0 before any probe.
func (s Stats) HitRatio() float64 {
	if t := s.Hits + s.Misses; t > 0 {
		return float64(s.Hits) / float64(t)
	}
	return 0
}

// DefaultCapacity is the entry capacity New applies when given a
// non-positive one.
const DefaultCapacity = 4096

// Cache is the snapshot-keyed result cache. All methods are safe for
// concurrent use; the critical sections are map probes and pointer
// splices, so the lock is held for far less than the searches it
// short-circuits.
type Cache struct {
	mu   sync.Mutex
	cap  int
	cur  any // snapshot token of every live entry
	m    map[Key]int
	ent  []entry
	free []int
	// LRU list head/tail (most recent at head); -1 when empty.
	head, tail int

	hits, misses, fills, evict, inval atomic.Int64
}

// New returns a cache holding at most capacity entries (<= 0 selects
// DefaultCapacity).
func New(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Cache{cap: capacity, m: make(map[Key]int), head: -1, tail: -1}
}

// Stats returns the cache's counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	n := len(c.m)
	c.mu.Unlock()
	return Stats{
		Hits: c.hits.Load(), Misses: c.misses.Load(),
		Fills: c.fills.Load(), Evictions: c.evict.Load(),
		Invalidations: c.inval.Load(), Entries: n,
	}
}

// clearLocked drops all entries and forgets the current token. Entry
// slots are zeroed so superseded snapshots (and their arenas) pinned by
// the old entries become collectable immediately.
func (c *Cache) clearLocked() {
	clear(c.m)
	for i := range c.ent {
		c.ent[i] = entry{}
	}
	c.ent = c.ent[:0]
	c.free = c.free[:0]
	c.head, c.tail = -1, -1
	c.cur = nil
}

// rotate makes snap the current token, clearing the map when it
// changed. Caller holds the lock.
func (c *Cache) rotate(snap any) {
	if c.cur != snap {
		if c.cur != nil {
			c.clearLocked()
			c.inval.Add(1)
		}
		c.cur = snap
	}
}

// Get probes for the answer of (key, query) computed against snapshot
// snap. On a hit the cached results are appended to dst (a fresh slice
// when dst is nil) — the cache's copy is never aliased out. A probe
// whose token differs from the cache's current one invalidates the
// whole cache and misses.
func (c *Cache) Get(snap any, key Key, x, y float64, vec []float32, dst []knn.Result) ([]knn.Result, bool) {
	c.mu.Lock()
	c.rotate(snap)
	i, ok := c.m[key]
	if !ok || !c.ent[i].matches(x, y, vec) {
		c.mu.Unlock()
		c.misses.Add(1)
		return dst, false
	}
	c.unlink(i)
	c.pushFront(i)
	dst = append(dst, c.ent[i].res...)
	c.mu.Unlock()
	c.hits.Add(1)
	return dst, true
}

// Put stores the answer of (key, query) computed against snapshot
// snap, copying query and results (the caller's slices are not
// retained). Unlike Get, a Put never rotates the current token: a
// slow request finishing against a superseded snapshot must not wipe
// entries fresher requests already filled, so a Put whose token is not
// current is simply dropped (it could never be served — new requests
// present the newer token).
func (c *Cache) Put(snap any, key Key, x, y float64, vec []float32, res []knn.Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cur == nil {
		c.cur = snap
	}
	if c.cur != snap {
		return
	}
	if i, ok := c.m[key]; ok {
		// Same key, possibly a hash-colliding different query: replace —
		// keeping the most recent answer serves the common re-Put case
		// and collision churn degrades hit rate, never correctness.
		c.ent[i].fill(snap, key, x, y, vec, res)
		c.unlink(i)
		c.pushFront(i)
		return
	}
	i := c.alloc(key)
	c.ent[i].fill(snap, key, x, y, vec, res)
	c.m[key] = i
	c.pushFront(i)
	c.fills.Add(1)
}

// alloc returns a free entry slot, evicting the LRU tail when full.
func (c *Cache) alloc(key Key) int {
	if len(c.free) > 0 {
		i := c.free[len(c.free)-1]
		c.free = c.free[:len(c.free)-1]
		return i
	}
	if len(c.ent) < c.cap {
		c.ent = append(c.ent, entry{})
		return len(c.ent) - 1
	}
	i := c.tail
	c.unlink(i)
	delete(c.m, c.ent[i].key)
	c.evict.Add(1)
	return i
}

func (e *entry) fill(snap any, key Key, x, y float64, vec []float32, res []knn.Result) {
	e.snap, e.key = snap, key
	e.x, e.y = x, y
	e.vec = append(e.vec[:0], vec...)
	e.res = append(e.res[:0], res...)
}

func (e *entry) matches(x, y float64, vec []float32) bool {
	if e.x != x || e.y != y || len(e.vec) != len(vec) {
		return false
	}
	for i, v := range vec {
		if e.vec[i] != v {
			return false
		}
	}
	return true
}

func (c *Cache) pushFront(i int) {
	c.ent[i].prev = -1
	c.ent[i].next = c.head
	if c.head >= 0 {
		c.ent[c.head].prev = i
	}
	c.head = i
	if c.tail < 0 {
		c.tail = i
	}
}

func (c *Cache) unlink(i int) {
	p, n := c.ent[i].prev, c.ent[i].next
	if p >= 0 {
		c.ent[p].next = n
	} else if c.head == i {
		c.head = n
	}
	if n >= 0 {
		c.ent[n].prev = p
	} else if c.tail == i {
		c.tail = p
	}
	c.ent[i].prev, c.ent[i].next = -1, -1
}
