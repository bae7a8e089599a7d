package core

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/knn"
	"repro/internal/metric"
	"repro/internal/obs"
)

// Striped exact reads (DESIGN §7b). One read answers q over one
// snapshot or over several that hold disjoint rows of one metric space
// (the shards of a sharded index), into one heap, the caller's. A
// striped read is one job that the caller and one idle helper share.
// Both claim whole snapshots from one cursor while two or more are
// unclaimed; each orders the claimed snapshot's frontier on a scratch of
// its own, walks it and then its overlay (scanDelta). The last snapshot
// is walked by both: each orders its frontier — both yield the same
// cluster sequence — and claims its positions in chunks of stripeChunk
// from a second cursor, popping the positions it does not own unscanned,
// without loading their headers; the stripe that claimed it first scans
// its overlay too. So both stripes end within one chunk of each other,
// and a one-snapshot read is the case where the last snapshot is the
// only one. Both stripes push into the read's one heap under the job's
// mutex, and a push that fills the heap or lowers its k-th distance
// publishes it to the job's Bound; every cut of either stripe, per
// cluster and per row, reads that bound. At the join the heap holds what
// one stripe's would, so there is nothing to merge, and the answer is
// the one-stripe read's, bit for bit. The work counters are not, so a
// read that collects them is never striped. A read that records
// per-snapshot spans is: each stripe writes the span of a snapshot it
// walked whole, and the last snapshot's span is the fold of both
// stripes' walks of it, taken at the join.
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
// returns while a helper still reads its snapshots. A helper's panic is
// re-raised on the caller. The caller polls briefly for its own running
// helper before it parks (awaitStripe).

// stripeBound is the k-th distance bound the two stripes of a striped
// read share: their one heap's k-th distance, published by the pushes.
// It holds float64 bits on a cache line of its own, starts at the read's
// radius (+Inf for none), and is only ever lowered, each time to the
// full heap's k-th distance. A full heap holds k real candidates, so the
// bound never drops below the read's final k-th distance; every cut
// against it is strict, so each object of the answer, ties included,
// reaches the heap.
type stripeBound struct {
	_    [64]byte
	bits atomic.Uint64
	_    [56]byte
}

func (b *stripeBound) store(u float64) { b.bits.Store(math.Float64bits(u)) }

func (b *stripeBound) load() float64 { return math.Float64frombits(b.bits.Load()) }

// lower publishes h's k-th distance when h is full and lower than the
// bound.
func (b *stripeBound) lower(h *knn.Heap) {
	cur := b.bits.Load()
	if u, full := h.Bound(); full {
		for u < math.Float64frombits(cur) {
			if b.bits.CompareAndSwap(cur, math.Float64bits(u)) {
				return
			}
			cur = b.bits.Load()
		}
	}
}

// stripeChunk is the number of frontier positions one claim hands out.
const stripeChunk = 4

// stripeJob is one striped read: what its stripes share, and the
// helper's half. It lives in the caller's pooled scratch; gen tells its
// offers apart, so a helper that wakes for a withdrawn offer cannot take
// a later one.
type stripeJob struct {
	// bound is the one heap's k-th distance capped by the radius; snap
	// is the next snapshot to claim and next the first position of the
	// last snapshot's frontier not yet claimed, beside mu, which guards
	// the heap. bound and the cursors each have a cache line of their
	// own.
	bound stripeBound
	snap  atomic.Int32
	next  atomic.Int32
	mu    sync.Mutex
	_     [48]byte
	// state is gen<<2 | one of the stripe* phases below.
	state atomic.Uint64
	gen   uint64
	done  chan struct{}
	// The query, written before the offer and read by the helper only
	// once it has taken the job; xs is a copy of the read's snapshot
	// list, caller the caller's scratch, whose heap is the read's one
	// heap, and spans, when non-nil, take each snapshot's internals.
	// tail is the span of the second stripe's walk of the last snapshot,
	// and joined says that walk ran. popped and poppedElems tally, under
	// mu, what the charged walks of the last snapshot examined (see
	// charge).
	xs          []*Index
	q           *dataset.Object
	lambda      float64
	caller      *searchScratch
	spans       []obs.ShardSpan
	tail        obs.ShardSpan
	joined      bool
	popped      int
	poppedElems int64
	charged     int
	hook        func(StripePoint)
	// cut latches a budget cut in a helper's walk, and panicked is its
	// recovered panic; both are read by the caller after done.
	cut      atomic.Bool
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

// claim hands the stripe on sc the next chunk of the last snapshot's
// positions [lo, hi).
func (j *stripeJob) claim(sc *searchScratch) (lo, hi int32) {
	if stripeHooks && !sc.helper {
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
	if r.Dist > j.bound.load() {
		return
	}
	if stripeHooks {
		if sc.helper {
			stripeAt(j.hook, StripeHelperPush)
		} else {
			stripeAt(j.hook, StripeCallerPush)
		}
	}
	h := &j.caller.heap
	j.mu.Lock()
	if h.Push(r) {
		j.bound.lower(h)
	}
	j.mu.Unlock()
}

// offerStripe offers the read of q over xs a second stripe on an idle
// helper and returns the job, or nil when no helper is idle. sc's heap,
// reset, is the read's one heap.
func offerStripe(sc *searchScratch, xs []*Index, q *dataset.Object, lambda float64, spans []obs.ShardSpan) *stripeJob {
	j := &sc.stripe
	j.gen++
	j.xs = append(j.xs[:0], xs...)
	j.q, j.lambda, j.caller, j.spans, j.hook = q, lambda, sc, spans, loadStripeHook()
	j.bound.store(sc.rs.radius)
	j.snap.Store(0)
	j.next.Store(0)
	j.cut.Store(false)
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
				j.release()
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

// run is the helper's stripe of the taken job j; it hands the job back
// through done.
func (j *stripeJob) run(hook func(StripePoint)) {
	defer func() {
		if r := recover(); r != nil {
			j.panicked = r
		}
		j.done <- struct{}{}
	}()
	stripeAt(hook, StripeHelperStarted)
	j.walk(true)
}

// walk is one stripe of j: it claims snapshots from j's cursor and walks
// each — its frontier, then its overlay — until it has walked the last
// snapshot. It deals whole snapshots while two or more are unclaimed;
// the last one is claimed twice, by the stripe that reaches it first,
// which also scans its overlay, and by the other, which joins its
// frontier walk through chunk claims.
func (j *stripeJob) walk(helper bool) {
	n := int32(len(j.xs))
	for {
		if stripeHooks && !helper {
			stripeAt(j.hook, StripeCallerSnapshot)
		}
		i := j.snap.Add(1) - 1
		if stripeHooks && helper {
			stripeAt(j.hook, StripeHelperSnapshot)
		}
		if i > n {
			return
		}
		last := min(i, n-1)
		var sp *obs.ShardSpan
		if j.spans != nil {
			if sp = &j.spans[last]; i == n {
				sp, j.joined = &j.tail, true
			}
		}
		if j.xs[last].visit(j.caller, int(last), helper, j.q, j.lambda, j, i >= n-1, i < n, sp, nil) {
			j.cut.Store(true)
		}
		if i >= n-1 {
			return
		}
	}
}

// callerStripe is the caller's stripe of j, then the join; it reports
// whether the helper took the other.
func (j *stripeJob) callerStripe() (parallel bool) {
	ended := false
	defer func() { parallel = j.join(ended) }()
	j.walk(false)
	ended = true
	return
}

// join ends the striped read j once the caller's stripe is done: it
// withdraws the job if the helper has not taken it, else waits for the
// helper and takes its budget cut into the read's. Both stripes pushed
// into the read's one heap, so there is nothing to merge; a recorded
// read's last span takes the second walk of its snapshot and the read's
// final k-th distance. join reports whether the helper took the job. It
// runs even if the caller's stripe panics; ended says the stripe
// returned, and a helper's panic is re-raised only then, as the caller's
// own panic goes on otherwise.
func (j *stripeJob) join(ended bool) bool {
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
	sc, p := j.caller, j.panicked
	sc.partial = sc.partial || j.cut.Load()
	if j.spans != nil {
		last, x := &j.spans[len(j.spans)-1], j.xs[len(j.xs)-1]
		walks := 1
		if j.joined {
			// Both walks of the last snapshot counted its clusters.
			j.tail.Stats.ClustersTotal -= int64(len(x.clusters))
			last.Fold(&j.tail)
			walks = 2
		}
		if j.charged == walks {
			// What neither walk examined was pruned, unless a budget cut
			// ended one: a cut walk charges nothing, as on one stripe.
			last.Stats.ClustersPruned += int64(len(x.clusters) - j.popped)
			last.Stats.InterPruned += x.baseLive() - j.poppedElems
		}
		if held := sc.heap.Items(); len(held) > 0 {
			last.Stats.KthDistance = held[0].Dist
		}
	}
	j.release()
	if ended && p != nil {
		panic(p)
	}
	return !withdrawn
}

// release drops what j holds of its read, so that a pooled scratch
// keeps no superseded snapshot reachable.
func (j *stripeJob) release() {
	clear(j.xs)
	j.xs = j.xs[:0]
	j.q, j.caller, j.spans, j.hook, j.panicked = nil, nil, nil, nil, nil
	j.tail, j.joined = obs.ShardSpan{}, false
	j.popped, j.poppedElems, j.charged = 0, 0, 0
}

// charge adds what the walk f of the last snapshot, on one stripe of a
// recorded read, popped for itself to j's tally, for the join to charge
// the rest as pruned; a walk that counts nothing (st nil) adds nothing.
func (j *stripeJob) charge(f *sideFrontier, st *metric.Stats) {
	if st == nil {
		return
	}
	j.mu.Lock()
	j.popped += f.popped
	j.poppedElems += f.poppedElems
	j.charged++
	j.mu.Unlock()
}

// stripePolls bounds awaitStripe's polls (≈ 220 µs on a 2-vCPU Xeon):
// long enough for a helper that ends a chunk or a whole shard after the
// caller (2,000 polls parked rw-sharded callers often enough to cost its
// single-op writes ≈ 14 % at p50).
const stripePolls = 20000

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
// in the slot for a polling helper, it is about to claim a snapshot or a
// chunk, its stripe is done (before and after it tries to withdraw the
// job); the helper received the offer or saw it in the slot, took the
// job, has just claimed a snapshot. After
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
	StripeCallerSnapshot
	StripeHelperSnapshot
)

// stripeAt runs hook at point p; a no-op unless hooks are compiled in.
func stripeAt(hook func(StripePoint), p StripePoint) {
	if stripeHooks && hook != nil {
		hook(p)
	}
}
