package obs

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

func TestSinkConfigDefaults(t *testing.T) {
	var def SinkConfig
	def.applyDefaults()
	if def.BufferSize != 1024 || def.SlowThreshold != 100*time.Millisecond || def.SampleEvery != 128 {
		t.Fatalf("defaults = %+v", def)
	}
	// Negative knobs disable their rule rather than defaulting.
	s := NewSink(SinkConfig{SlowThreshold: -1, SampleEvery: -1, BufferSize: -5})
	if s.SlowThreshold() > 0 {
		t.Fatalf("negative SlowThreshold not disabled: %v", s.SlowThreshold())
	}
	if s.SampleEvery() != 0 {
		t.Fatalf("negative SampleEvery not disabled: %d", s.SampleEvery())
	}
	if s.Ring().Cap() != 1024 {
		t.Fatalf("non-positive BufferSize not defaulted: %d", s.Ring().Cap())
	}
}

// TestSinkNeverDropsOffenders is the tail-sampling property test: no
// matter how traces interleave, every slow, errored, or partial trace
// is retained and retrievable, only normal traffic is sampled down.
func TestSinkNeverDropsOffenders(t *testing.T) {
	const slow = 10 * time.Millisecond
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 20; round++ {
		s := NewSink(SinkConfig{BufferSize: 4096, SlowThreshold: slow, SampleEvery: 1 + rng.Intn(64)})
		type offender struct{ id, reason string }
		var offenders []offender
		n := 200 + rng.Intn(400)
		for i := 0; i < n; i++ {
			tr := s.Get()
			tr.RequestID = fmt.Sprintf("%016x", i+1)
			tr.DurationNanos = rng.Int63n(slow.Nanoseconds())
			switch rng.Intn(10) {
			case 0:
				tr.Error = "boom"
				offenders = append(offenders, offender{tr.RequestID, KeepError})
			case 1:
				tr.Partial = true
				offenders = append(offenders, offender{tr.RequestID, KeepPartial})
			case 2:
				tr.DurationNanos = slow.Nanoseconds() + rng.Int63n(1000)
				offenders = append(offenders, offender{tr.RequestID, KeepSlow})
			}
			s.Finish(tr)
		}
		for _, o := range offenders {
			tr := s.Ring().Lookup(o.id)
			if tr == nil {
				t.Fatalf("round %d: offending trace %s (%s) dropped", round, o.id, o.reason)
			}
			if tr.SampleReason != o.reason {
				t.Fatalf("round %d: trace %s reason %q, want %q", round, o.id, tr.SampleReason, o.reason)
			}
		}
		seen, retained, sampledOut := s.Counts()
		if seen != uint64(n) {
			t.Fatalf("seen %d, want %d", seen, n)
		}
		if retained+sampledOut != seen {
			t.Fatalf("retained %d + sampledOut %d != seen %d", retained, sampledOut, seen)
		}
		if retained < uint64(len(offenders)) {
			t.Fatalf("retained %d < %d offenders", retained, len(offenders))
		}
	}
}

func TestSinkDeterministicSampling(t *testing.T) {
	const every = 8
	s := NewSink(SinkConfig{BufferSize: 1024, SampleEvery: every})
	kept := 0
	for i := 0; i < 64; i++ {
		tr := s.Get()
		tr.RequestID = fmt.Sprintf("%016x", i+1)
		s.Finish(tr)
		if s.Ring().Lookup(fmt.Sprintf("%016x", i+1)) != nil {
			kept++
			// The 1st, every+1th, ... normal trace is the kept one.
			if i%every != 0 {
				t.Fatalf("trace %d kept, want only every %dth", i, every)
			}
		}
	}
	if kept != 64/every {
		t.Fatalf("kept %d of 64, want %d", kept, 64/every)
	}
}

func TestSinkSampleEveryOneKeepsAll(t *testing.T) {
	s := NewSink(SinkConfig{BufferSize: 64, SampleEvery: 1})
	for i := 0; i < 32; i++ {
		tr := s.Get()
		tr.RequestID = fmt.Sprintf("%016x", i+1)
		s.Finish(tr)
	}
	_, retained, _ := s.Counts()
	if retained != 32 {
		t.Fatalf("retained %d, want 32", retained)
	}
}

func TestSinkNegativeSampleKeepsOnlyOffenders(t *testing.T) {
	s := NewSink(SinkConfig{BufferSize: 64, SampleEvery: -1, SlowThreshold: time.Millisecond})
	for i := 0; i < 16; i++ {
		tr := s.Get()
		tr.RequestID = fmt.Sprintf("a%015x", i+1)
		s.Finish(tr)
	}
	slow := s.Get()
	slow.RequestID = "bbbbbbbbbbbbbbbb"
	slow.DurationNanos = (2 * time.Millisecond).Nanoseconds()
	s.Finish(slow)
	_, retained, _ := s.Counts()
	if retained != 1 {
		t.Fatalf("retained %d, want only the slow trace", retained)
	}
	if s.Ring().Lookup("bbbbbbbbbbbbbbbb") == nil {
		t.Fatal("slow trace not retained")
	}
}

func TestSinkObserverAndSlowHandler(t *testing.T) {
	s := NewSink(SinkConfig{BufferSize: 16, SlowThreshold: time.Millisecond, SampleEvery: 4})
	var observed, slowSeen []string
	s.SetObserver(func(tr *Trace) { observed = append(observed, tr.RequestID) })
	s.SetSlowHandler(func(tr *Trace) { slowSeen = append(slowSeen, tr.RequestID) })

	fast := s.Get()
	fast.RequestID = "aaaaaaaaaaaaaaaa"
	s.Finish(fast) // 1st normal trace: sampled, but not an offender
	slow := s.Get()
	slow.RequestID = "bbbbbbbbbbbbbbbb"
	slow.DurationNanos = (5 * time.Millisecond).Nanoseconds()
	s.Finish(slow)

	if len(observed) != 2 {
		t.Fatalf("observer saw %d traces, want every trace (2)", len(observed))
	}
	if len(slowSeen) != 1 || slowSeen[0] != "bbbbbbbbbbbbbbbb" {
		t.Fatalf("slow handler saw %v, want only the slow trace", slowSeen)
	}
}

// TestSinkConcurrent drives concurrent Finish calls against ring
// readers under -race: the lock-free retention path must stay safe with
// parallel writers.
func TestSinkConcurrent(t *testing.T) {
	s := NewSink(SinkConfig{BufferSize: 32, SampleEvery: 3, SlowThreshold: time.Microsecond})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				tr := s.Get()
				tr.RequestID = fmt.Sprintf("%08x%08x", w, i)
				if i%7 == 0 {
					tr.DurationNanos = time.Millisecond.Nanoseconds()
				}
				s.Finish(tr)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			for _, tr := range s.Ring().Snapshot(0) {
				_ = tr.RequestID
			}
		}
	}()
	wg.Wait()
	<-done
	seen, retained, sampledOut := s.Counts()
	if seen != 20000 || retained+sampledOut != seen {
		t.Fatalf("counts seen=%d retained=%d sampledOut=%d", seen, retained, sampledOut)
	}
}
