package core

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/knn"
)

// Striped exact reads (DESIGN §7b). The caller and one idle helper each
// order the query's frontier on their own scratch — both yield the same
// cluster sequence — and claim its positions in chunks of stripeChunk
// from one cursor. A stripe pops the positions it does not own
// unscanned, without loading their headers. Both stripes push into the
// read's one heap, the caller's, under the job's mutex, and a push that
// fills the heap or lowers its k-th distance publishes it to the job's
// Bound; every cut of either stripe, per cluster and per row, reads that
// bound. At the join the heap holds what one stripe's would, so there
// is nothing to merge, and the answer is the one-stripe read's, bit for
// bit. The work counters are not, so a read that collects them is never
// striped.
//
// Helpers are standing goroutines, started lazily up to GOMAXPROCS−1;
// they never exit. A helper that has just run a stripe polls a one-job
// slot for stripePollWindow, then parks on an unbuffered channel. An
// offer goes into the slot while a helper polls it, and is otherwise a
// non-blocking send, which only a parked helper takes; with neither the
// read is one stripe. A poller claims a slot entry by taking it out
// before it looks further. Either way the job's state word decides who
// has it: a helper takes the job by one CAS, and a caller whose stripe
// ends first withdraws it by another, so exactly one of them wins, and
// the loser leaves the query untouched. The word is "offered" only while
// the caller expects a helper, and each offer carries a new generation
// in it, so a helper holding a stale reference — an old channel offer —
// can never take a later job. A taken job is waited for, so no read
// returns while a helper still reads its snapshot. A helper's panic is re-raised on the caller. The
// caller polls briefly for its own running helper before it parks
// (awaitStripe).

// Bound is the k-th distance bound the readers of one parallel exact
// read share: the two stripes of a striped snapshot, which publish their
// one heap's k-th distance to it, or the seeded chains of a sharded read
// (SearchOptions.Bound), which each publish their own. It holds float64
// bits on a cache line of its own, starts at the read's radius (+Inf for
// none), and is only ever lowered, each time to a full heap's k-th
// distance. A full heap holds k real candidates, so the bound never
// drops below the read's final k-th distance; every cut against it is
// strict, so each object of the answer, ties included, reaches a heap.
type Bound struct {
	_    [64]byte
	bits atomic.Uint64
	_    [56]byte
}

// Store sets the bound to u: the read's radius when it starts, or, in
// tests, any value no lower than the read's final k-th distance.
func (b *Bound) Store(u float64) { b.bits.Store(math.Float64bits(u)) }

// Load returns the bound.
func (b *Bound) Load() float64 { return math.Float64frombits(b.bits.Load()) }

// lower publishes h's k-th distance when h is full and lower than the
// bound, and returns the bound.
func (b *Bound) lower(h *knn.Heap) float64 {
	cur := b.bits.Load()
	if u, full := h.Bound(); full {
		for u < math.Float64frombits(cur) {
			if b.bits.CompareAndSwap(cur, math.Float64bits(u)) {
				return u
			}
			cur = b.bits.Load()
		}
	}
	return math.Float64frombits(cur)
}

// stripeChunk is the number of frontier positions one claim hands out.
const stripeChunk = 4

// stripeJob is one striped read: what its stripes share, and the
// helper's half. It lives in the caller's pooled scratch; gen tells its
// offers apart, so a helper that wakes for a withdrawn offer cannot take
// a later one.
type stripeJob struct {
	// bound is the one heap's k-th distance capped by the radius, and
	// next the first frontier position not yet claimed, beside mu, which
	// guards the heap; bound and next each have a cache line of their
	// own.
	bound Bound
	next  atomic.Int32
	mu    sync.Mutex
	_     [52]byte
	// state is gen<<2 | one of the stripe* phases below.
	state atomic.Uint64
	gen   uint64
	done  chan struct{}
	// The query, written before the offer and read by the helper only
	// once it has taken the job; caller is the caller's scratch, whose
	// heap is the read's one heap.
	x      *Index
	q      *dataset.Object
	lambda float64
	caller *searchScratch
	hook   func(StripePoint)
	// sc is the helper's scratch and panicked its recovered panic, both
	// handed back through done.
	sc       *searchScratch
	panicked any
}

const (
	stripeOffered = iota
	stripeRunning
	stripeWithdrawn
)

// stripeOffer is what travels to a parked helper.
type stripeOffer struct {
	j    *stripeJob
	gen  uint64
	hook func(StripePoint)
}

// stripePollWindow is how long a helper that has just run a stripe
// polls the slot before it parks: long enough to meet a single client's
// next read, short enough that an idle helper hands its core back at
// once (DESIGN §7b has the sweep that chose it).
const stripePollWindow = 30 * time.Microsecond

var (
	stripeOffers  = make(chan stripeOffer)
	stripeHelpers atomic.Int32
	// stripeSlot is the job on offer to polling helpers (nil for none),
	// and stripePollers counts the helpers polling it.
	stripeSlot    atomic.Pointer[stripeJob]
	stripePollers atomic.Int32
)

// claim hands the stripe on sc the next chunk of positions [lo, hi).
func (j *stripeJob) claim(sc *searchScratch) (lo, hi int32) {
	if stripeHooks && sc == j.caller {
		stripeAt(j.hook, StripeCallerClaim)
	}
	hi = j.next.Add(stripeChunk)
	return hi - stripeChunk, hi
}

// push offers r, from the stripe on sc, to the read's one heap and
// publishes the heap's k-th distance when the push fills or lowers it.
// A candidate beyond the bound cannot be kept, so it takes no lock: the
// bound is the radius or the heap's k-th distance as of its last kept
// push.
func (j *stripeJob) push(sc *searchScratch, r knn.Result) {
	if r.Dist > j.bound.Load() {
		return
	}
	if stripeHooks {
		if sc == j.caller {
			stripeAt(j.hook, StripeCallerPush)
		} else {
			stripeAt(j.hook, StripeHelperPush)
		}
	}
	h := &j.caller.heap
	j.mu.Lock()
	if h.Push(r) {
		j.bound.lower(h)
	}
	j.mu.Unlock()
}

// offerStripe offers the query's second stripe to an idle helper and
// returns the job, or nil when no helper is idle. sc's heap, reset and
// seeded, is the read's one heap.
func (x *Index) offerStripe(sc *searchScratch, q *dataset.Object, lambda float64) *stripeJob {
	j := &sc.stripe
	j.gen++
	j.x, j.q, j.lambda, j.caller, j.hook = x, q, lambda, sc, loadStripeHook()
	j.bound.Store(sc.rs.radius)
	j.bound.lower(&sc.heap)
	j.next.Store(0)
	if j.done == nil {
		j.done = make(chan struct{}, 1)
	}
	j.state.Store(j.gen<<2 | stripeOffered)
	o := stripeOffer{j, j.gen, j.hook}
	if stripeHooks && o.hook != nil {
		// A forced schedule needs its offer taken: wait for a helper,
		// polling or parked, or for one that had claimed an earlier
		// offer of j to take this one.
		offered := j.gen<<2 | stripeOffered
		if stripeHelpers.CompareAndSwap(0, 1) {
			go stripeHelper()
		}
		for !j.slot() && j.state.Load() == offered {
			select {
			case stripeOffers <- o:
			default:
				runtime.Gosched()
				continue
			}
			break
		}
	} else if !j.slot() {
		select {
		case stripeOffers <- o:
		default:
			if n := stripeHelpers.Load(); int(n) < runtime.GOMAXPROCS(0)-1 && stripeHelpers.CompareAndSwap(n, n+1) {
				go stripeHelper()
			}
			if j.state.CompareAndSwap(j.gen<<2|stripeOffered, j.gen<<2|stripeWithdrawn) {
				return nil
			}
			// A poller that had claimed an earlier offer of j from the
			// slot took this one first.
		}
	}
	stripeAt(o.hook, StripeOffered)
	return j
}

// slot puts the offered j into the slot when a helper polls it, and
// reports whether a helper will decide j: a poller claims a slot entry
// by taking it out, by CAS, before it tries the job's state, so a
// claimed job is settled between that poller and the caller's
// withdrawal. A poller that stops polling deregisters before its last
// look at the slot, so if one is still registered once j is in, one
// will see it; if none is, j may have arrived after the last look, and
// slot takes it back out unless a poller claimed it first.
func (j *stripeJob) slot() bool {
	if stripePollers.Load() == 0 || !stripeSlot.CompareAndSwap(nil, j) {
		return false
	}
	return stripePollers.Load() > 0 || !stripeSlot.CompareAndSwap(j, nil)
}

// stripeHelper is a standing helper: it runs the stripes it is offered,
// one at a time, for the life of the process, and after each one polls
// the slot for the next before it parks again.
func stripeHelper() {
	for o := range stripeOffers {
		stripeAt(o.hook, StripeHelperWake)
		if !o.j.state.CompareAndSwap(o.gen<<2|stripeOffered, o.gen<<2|stripeRunning) {
			continue
		}
		for j, hook := o.j, o.hook; j != nil; {
			j.run(hook)
			j, hook = pollStripeSlot(hook)
		}
	}
}

// pollStripeSlot polls the slot for stripePollWindow and returns the job
// it took there with its hook, or nil once the window closes empty. hook
// is the hook of the job the helper has just run.
func pollStripeSlot(hook func(StripePoint)) (*stripeJob, func(StripePoint)) {
	stripePollers.Add(1)
	stripeAt(hook, StripeHelperPolling)
	start := time.Now()
	for {
		if j := takeSlot(); j != nil {
			stripePollers.Add(-1)
			return j, j.hook
		}
		if time.Since(start) >= stripePollWindow {
			break
		}
	}
	stripeAt(hook, StripeHelperPollEnd)
	stripePollers.Add(-1)
	if j := takeSlot(); j != nil {
		return j, j.hook
	}
	return nil, nil
}

// takeSlot claims the job in the slot, if there is one, by taking it
// out, and takes it unless its caller has withdrawn it.
func takeSlot() *stripeJob {
	j := stripeSlot.Load()
	if j == nil || !stripeSlot.CompareAndSwap(j, nil) {
		return nil
	}
	// The job's own hook may not be read before it is taken: a test's
	// hook stays installed for the read it forces.
	stripeAt(loadStripeHook(), StripeHelperWake)
	s := j.state.Load()
	if s&3 != stripeOffered || !j.state.CompareAndSwap(s, s-stripeOffered+stripeRunning) {
		return nil
	}
	return j
}

// run walks the frontier as the second stripe of the taken job j, and
// hands it back through done.
func (j *stripeJob) run(hook func(StripePoint)) {
	defer func() {
		if r := recover(); r != nil {
			j.panicked = r
		}
		j.done <- struct{}{}
	}()
	stripeAt(hook, StripeHelperStarted)
	x := j.x
	sc := x.getScratch()
	j.sc = sc
	sc.deadline, sc.cancel, sc.budgeted, sc.rs = j.caller.deadline, j.caller.cancel, j.caller.budgeted, j.caller.rs
	f := x.orderByBound(sc, j.q, j.lambda)
	x.walkFrontier(sc, f, j.q, j.lambda, nil, nil, j, nil)
}

// walkStriped is the caller's stripe of a striped read, then the join:
// withdraw the job if the helper has not taken it, else wait for the
// helper and take its budget cut into the caller's. Both stripes pushed
// into the read's one heap, so there is nothing to merge. The join runs
// even if the caller's stripe panics.
func (x *Index) walkStriped(sc *searchScratch, f *sideFrontier, q *dataset.Object, lambda float64, j *stripeJob) {
	ended := false
	defer func() { x.joinStripe(sc, j, ended) }()
	x.walkFrontier(sc, f, q, lambda, nil, nil, j, nil)
	ended = true
}

// joinStripe ends the striped read j. ended says the caller's stripe
// returned; a helper's panic is re-raised only then, as the caller's own
// panic goes on otherwise.
func (x *Index) joinStripe(sc *searchScratch, j *stripeJob, ended bool) {
	stripeAt(j.hook, StripeCallerEnding)
	withdrawn := j.state.CompareAndSwap(j.gen<<2|stripeOffered, j.gen<<2|stripeWithdrawn)
	if stripeSlot.Load() == j {
		// Unclaimed, or left behind when a poller that had claimed an
		// earlier offer of j took this one: no later offer may find it.
		stripeSlot.CompareAndSwap(j, nil)
	}
	stripeAt(j.hook, StripeCallerEnded)
	if !withdrawn {
		awaitStripe(j)
	}
	hsc, p := j.sc, j.panicked
	j.x, j.q, j.caller, j.hook, j.sc, j.panicked = nil, nil, nil, nil, nil, nil
	if hsc != nil {
		sc.partial = sc.partial || hsc.partial
		x.putScratch(hsc)
	}
	if ended && p != nil {
		panic(p)
	}
}

// stripePolls bounds awaitStripe's polls (tens of µs).
const stripePolls = 2000

// awaitStripe waits for the helper. Its last chunk usually ends within
// a few µs of the caller's, so the caller polls before it parks: a
// parked caller is readied on the helper's P, and the query's caller
// then runs its next operation on the other core's caches.
func awaitStripe(j *stripeJob) {
	for range stripePolls {
		select {
		case <-j.done:
			return
		default:
		}
	}
	<-j.done
}

// StripePoint names a schedule point of a striped read, where a hook
// installed by SetStripeHook runs: the caller's offer was taken or put
// in the slot for a polling helper, it is about to claim a chunk, its
// stripe is done (before and after it tries to withdraw the job); the
// helper received the offer or saw it in the slot, took the job. After
// running a job the helper passes two more points with that job's hook:
// it starts polling the slot, and its window has closed (it still
// counts as polling there, and looks at the slot once more after).
// Either stripe passes a point before each push the bound admits.
type StripePoint int

const (
	StripeOffered StripePoint = iota
	StripeCallerClaim
	StripeCallerEnding
	StripeCallerEnded
	StripeHelperWake
	StripeHelperStarted
	StripeHelperPolling
	StripeHelperPollEnd
	StripeCallerPush
	StripeHelperPush
)

// stripeAt runs hook at point p; a no-op unless hooks are compiled in.
func stripeAt(hook func(StripePoint), p StripePoint) {
	if stripeHooks && hook != nil {
		hook(p)
	}
}
