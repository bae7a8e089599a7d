package main

import (
	"encoding/json"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary the benchmark calls
// across. Spans of one request share Req; Parent is the index of the
// span that caused this one (-1 for a root). Count carries the work
// counter read at the same boundary (objects visited, cache hits, ...).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"startNs"` // since the recorder's epoch
	End    int64  `json:"endNs"`
	Parent int32  `json:"parent"`
	Req    int32  `json:"req"`
	Count  int64  `json:"count,omitempty"`
}

// spanRec keeps spans in memory for the whole run and writes them once
// at exit. It records only while on is set, which is how the traced run
// alternates recorded and unrecorded rounds to price its own overhead.
type spanRec struct {
	on    atomic.Bool
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanRec() *spanRec { return &spanRec{epoch: time.Now(), spans: make([]span, 0, 1<<16)} }

// record switches recording on or off; a nil recorder stays off.
func (r *spanRec) record(on bool) {
	if r != nil {
		r.on.Store(on)
	}
}

// begin opens a span and returns its index, or -1 when not recording.
func (r *spanRec) begin(name string, parent, req int32) int32 {
	if r == nil || !r.on.Load() {
		return -1
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	i := int32(len(r.spans))
	if req < 0 {
		req = i
	}
	r.spans = append(r.spans, span{Name: name, Start: now, Parent: parent, Req: req})
	r.mu.Unlock()
	return i
}

func (r *spanRec) end(i int32, count int64) {
	if i < 0 {
		return
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans[i].End, r.spans[i].Count = now, count
	r.mu.Unlock()
}

// wrap records a server.handler span around next, as a child of the
// request span whose index the client sent as X-Request-Id.
func (r *spanRec) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		parent := int32(-1)
		if id, err := strconv.ParseInt(req.Header.Get("X-Request-Id"), 10, 32); err == nil {
			parent = int32(id)
		}
		s := r.begin("server.handler", parent, parent)
		next.ServeHTTP(w, req)
		r.end(s, 0)
	})
}

func (r *spanRec) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	r.mu.Lock()
	err = json.NewEncoder(f).Encode(r.spans)
	r.mu.Unlock()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
