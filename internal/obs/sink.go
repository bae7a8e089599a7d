package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Retention reasons the tail sampler stamps into Trace.SampleReason.
const (
	KeepSlow    = "slow"
	KeepError   = "error"
	KeepPartial = "partial"
	KeepSampled = "sampled"
)

// SinkConfig configures a Sink's tail-sampling policy.
type SinkConfig struct {
	// BufferSize is the trace ring capacity (default 1024).
	BufferSize int
	// SlowThreshold is the latency at or above which a trace is always
	// retained and reported to the slow handler (default 100ms;
	// negative disables the slow rule).
	SlowThreshold time.Duration
	// SampleEvery keeps a deterministic 1-in-N sample of normal
	// (fast, successful) traffic (default 128; 1 keeps everything;
	// negative keeps only slow/errored/partial traces).
	SampleEvery int
}

func (c *SinkConfig) applyDefaults() {
	if c.BufferSize <= 0 {
		c.BufferSize = 1024
	}
	if c.SlowThreshold == 0 {
		c.SlowThreshold = 100 * time.Millisecond
	}
	if c.SampleEvery == 0 {
		c.SampleEvery = 128
	}
	if c.SampleEvery < 0 {
		c.SampleEvery = 0
	}
}

// Sink is the always-on trace collector: traced Do/DoBatch calls check
// a pooled Trace out with Get, fill it, and hand it back with Finish,
// which applies tail-based retention — every slow, errored, or partial
// trace is kept, plus a deterministic 1-in-N sample of normal traffic
// — into the lock-free TraceRing. Dropped traces are recycled through
// a sync.Pool, so steady-state tracing allocates only when a trace is
// actually retained. All methods are safe for concurrent use.
type Sink struct {
	ring        *TraceRing
	slowNanos   int64
	sampleEvery uint64

	normal     atomic.Uint64 // normal-traffic counter driving 1-in-N
	seen       atomic.Uint64
	retained   atomic.Uint64
	sampledOut atomic.Uint64

	observer atomic.Pointer[func(*Trace)]
	onSlow   atomic.Pointer[func(*Trace)]

	pool sync.Pool
}

// NewSink returns a Sink with cfg's policy (zero fields take defaults).
func NewSink(cfg SinkConfig) *Sink {
	cfg.applyDefaults()
	s := &Sink{
		ring:        NewTraceRing(cfg.BufferSize),
		slowNanos:   cfg.SlowThreshold.Nanoseconds(),
		sampleEvery: uint64(cfg.SampleEvery),
	}
	s.pool.New = func() any { return new(Trace) }
	return s
}

// Ring exposes the retained-trace ring for /debug/traces readers.
func (s *Sink) Ring() *TraceRing { return s.ring }

// SlowThreshold returns the configured always-retain latency bound.
func (s *Sink) SlowThreshold() time.Duration {
	return time.Duration(s.slowNanos)
}

// SampleEvery returns the configured 1-in-N normal-traffic rate.
func (s *Sink) SampleEvery() int { return int(s.sampleEvery) }

// Counts reports lifetime totals: traces seen, retained in the ring,
// and sampled out (recycled).
func (s *Sink) Counts() (seen, retained, sampledOut uint64) {
	return s.seen.Load(), s.retained.Load(), s.sampledOut.Load()
}

// SetObserver installs fn to run on every finished trace — retained or
// not — before the retention decision recycles it. fn must not retain
// t beyond the call and must be cheap: it runs on the request path.
func (s *Sink) SetObserver(fn func(t *Trace)) {
	if fn == nil {
		s.observer.Store(nil)
		return
	}
	s.observer.Store(&fn)
}

// SetSlowHandler installs fn to run on every offending trace — slow,
// errored, or partial (not the 1-in-N normal sample). The trace is
// already retained and immutable, so fn may hold it.
func (s *Sink) SetSlowHandler(fn func(t *Trace)) {
	if fn == nil {
		s.onSlow.Store(nil)
		return
	}
	s.onSlow.Store(&fn)
}

// Get checks a reset Trace out of the pool.
func (s *Sink) Get() *Trace {
	t := s.pool.Get().(*Trace)
	t.Reset()
	return t
}

// Finish classifies t and either retains it in the ring (slow, errored,
// partial, or the deterministic 1-in-N of normal traffic) or recycles
// it. The caller must not touch t after Finish.
func (s *Sink) Finish(t *Trace) {
	if t == nil {
		return
	}
	s.seen.Add(1)
	reason := s.decide(t)
	t.SampleReason = reason
	if obsv := s.observer.Load(); obsv != nil {
		(*obsv)(t)
	}
	if reason == "" {
		s.sampledOut.Add(1)
		s.pool.Put(t)
		return
	}
	s.retained.Add(1)
	if reason != KeepSampled {
		if h := s.onSlow.Load(); h != nil {
			(*h)(t)
		}
	}
	// Retained traces stay out of the pool for good: ring readers may
	// hold references long after the slot is overwritten.
	s.ring.Put(t)
}

// decide implements the tail-sampling rule. Offending traces always
// win; the normal-traffic counter makes the 1-in-N sample deterministic
// (the 1st, N+1th, 2N+1th… normal trace is kept).
func (s *Sink) decide(t *Trace) string {
	switch {
	case t.Error != "":
		return KeepError
	case t.Partial:
		return KeepPartial
	case s.slowNanos > 0 && t.DurationNanos >= s.slowNanos:
		return KeepSlow
	}
	if s.sampleEvery > 0 && (s.normal.Add(1)-1)%s.sampleEvery == 0 {
		return KeepSampled
	}
	return ""
}
