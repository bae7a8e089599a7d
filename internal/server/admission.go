package server

import (
	"fmt"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"
)

// Admission control: every query endpoint can sit behind a bounded
// gate — at most maxInFlight requests execute concurrently, at most
// maxQueue more wait (each for at most maxWait) for a slot, and
// everything beyond that is shed immediately with 429 Too Many
// Requests and a Retry-After header. Shedding the excess keeps the
// latency of the admitted requests bounded under overload: with the
// gate sized to the machine (inflight ≈ GOMAXPROCS) a non-shed
// request waits behind at most maxQueue/maxInFlight service times,
// instead of the unbounded goroutine pileup an open server degrades
// into past saturation. Disabled by default; cssiserve enables it via
// -max-inflight/-max-queue/-queue-wait.

// admissionConfig is the server-wide gate sizing SetAdmissionLimits
// records; Handler stamps one gate per query endpoint from it.
type admissionConfig struct {
	maxInFlight int
	maxQueue    int
	maxWait     time.Duration
}

// defaultQueueWait bounds how long a queued request waits for an
// execution slot when SetAdmissionLimits is called with maxWait <= 0.
const defaultQueueWait = 100 * time.Millisecond

// SetAdmissionLimits enables per-endpoint admission control on every
// query endpoint (/search, /search/batch, /keyword-search, /range,
// /box, /debug/explain): at most maxInFlight requests of one endpoint
// execute concurrently (<= 0 selects GOMAXPROCS), at most maxQueue
// more queue for a slot (0 queues nothing: saturated means shed), and
// a queued request waits at most maxWait (<= 0 selects 100ms) before
// it is shed. Shed requests receive 429 with the standard error
// envelope and a Retry-After header. maxQueue < 0 is rejected. Call
// before Handler.
func (s *Server) SetAdmissionLimits(maxInFlight, maxQueue int, maxWait time.Duration) error {
	if maxQueue < 0 {
		return fmt.Errorf("admission: maxQueue must be >= 0, got %d", maxQueue)
	}
	if maxInFlight <= 0 {
		maxInFlight = runtime.GOMAXPROCS(0)
	}
	if maxWait <= 0 {
		maxWait = defaultQueueWait
	}
	s.admit = &admissionConfig{maxInFlight: maxInFlight, maxQueue: maxQueue, maxWait: maxWait}
	return nil
}

// EnableResultCache installs the snapshot-keyed result cache on the
// served index (capacity <= 0 selects the library default). Cached
// answers are bit-identical to uncached searches — entries are keyed
// to the exact snapshot vector they were computed from and a write,
// compaction, or rebuild on any shard invalidates wholesale — so this
// changes tail latency, never results. /metrics grows a result-cache
// block when enabled. Call before Handler.
func (s *Server) EnableResultCache(capacity int) {
	s.idx.EnableResultCache(capacity)
}

// SetDefaultDeadline gives every query request that does not carry its
// own deadlineMs this time budget (0 disables, the default). A request
// that exhausts its budget returns the exact top-k of the candidates
// examined so far with meta.partial=true rather than queue-amplifying
// the overload. Call before Handler.
func (s *Server) SetDefaultDeadline(d time.Duration) {
	if d < 0 {
		d = 0
	}
	s.defaultDeadline = d
}

// admissionGate is one endpoint's bounded-concurrency gate.
type admissionGate struct {
	name     string
	inflight chan struct{} // capacity maxInFlight; holding a slot = executing
	queued   atomic.Int64  // requests currently waiting for a slot
	maxQueue int64
	maxWait  time.Duration
	shed     atomic.Int64 // requests rejected with 429
}

func newGate(name string, cfg *admissionConfig) *admissionGate {
	return &admissionGate{
		name:     name,
		inflight: make(chan struct{}, cfg.maxInFlight),
		maxQueue: int64(cfg.maxQueue),
		maxWait:  cfg.maxWait,
	}
}

// admit tries to claim an execution slot, queuing for at most maxWait
// when the endpoint is saturated. It returns the time spent queued, or
// ok=false when the request must be shed (queue full, wait exhausted,
// or client gone). An admitted request calls release when it is done.
func (g *admissionGate) admit(r *http.Request) (wait time.Duration, ok bool) {
	select {
	case g.inflight <- struct{}{}:
		return 0, true
	default:
	}
	if g.queued.Add(1) > g.maxQueue {
		g.queued.Add(-1)
		g.shed.Add(1)
		return 0, false
	}
	defer g.queued.Add(-1)
	timer := time.NewTimer(g.maxWait)
	defer timer.Stop()
	start := time.Now()
	select {
	case g.inflight <- struct{}{}:
		return time.Since(start), true
	case <-timer.C:
		g.shed.Add(1)
		return 0, false
	case <-r.Context().Done():
		// The client gave up while queued; count it with the shed — the
		// gate turned the request away without executing it.
		g.shed.Add(1)
		return 0, false
	}
}

// release frees the slot an admitted request held.
func (g *admissionGate) release() { <-g.inflight }

// gateStat is one gate's point-in-time counters for /metrics.
type gateStat struct {
	endpoint string
	inflight int
	queued   int64
	shed     int64
}

func (g *admissionGate) stat() gateStat {
	return gateStat{endpoint: g.name, inflight: len(g.inflight), queued: g.queued.Load(), shed: g.shed.Load()}
}

// admitted wraps a query handler with gate: shed requests are answered
// 429 + Retry-After without ever reaching h, admitted ones carry their
// queue wait in the request's state.
func (s *Server) admitted(g *admissionGate, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		wait, ok := g.admit(r)
		if !ok {
			// Retry-After is load shedding's contract with well-behaved
			// clients: back off at least this long before retrying.
			w.Header().Set("Retry-After", "1")
			writeError(w, r, http.StatusTooManyRequests,
				g.name+" is over capacity; request shed by admission control")
			return
		}
		defer g.release()
		requestOf(r).queueWait = wait
		h(w, r)
	}
}
