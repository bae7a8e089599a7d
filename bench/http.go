package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"time"

	cssi "repro"
	"repro/internal/server"
)

// cacheEntries is the result-cache capacity of the served index: far
// above the hot set, below one round's cold queries, so evictions happen.
const cacheEntries = 4096

// httpTarget is a server.Server on a loopback listener plus the
// keep-alive clients that talk to it.
type httpTarget struct {
	sh      *cssi.ShardedIndex
	handler http.Handler
	srv     *http.Server
	served  chan error
	base    string
	clients []*http.Client
}

// searchBody is the /v1/search request; the query always travels as an
// explicit vector.
type searchBody struct {
	X      float64   `json:"x"`
	Y      float64   `json:"y"`
	Vec    []float32 `json:"vec"`
	K      int       `json:"k"`
	Lambda float64   `json:"lambda"`
	Cache  string    `json:"cache,omitempty"`
}

// searchReply is the part of the /v1/search reply the oracle checks.
type searchReply struct {
	Results []struct {
		ID   uint32  `json:"id"`
		Dist float64 `json:"dist"`
	} `json:"results"`
}

type objectBody struct {
	ID  uint32    `json:"id"`
	X   float64   `json:"x"`
	Y   float64   `json:"y"`
	Vec []float32 `json:"vec"`
}

func encodeSearch(q *cssi.Object, cache string) []byte {
	b, err := json.Marshal(searchBody{X: q.X, Y: q.Y, Vec: q.Vec, K: topK, Lambda: lambda, Cache: cache})
	if err != nil {
		panic(err) // a struct of numbers always encodes
	}
	return b
}

// serve wraps idx the way cmd/cssiserve does — one shard, admission
// gate, optional result cache, always-on trace sink — and starts it on
// 127.0.0.1:0.
func serve(idx *cssi.Index, d *data, clients int, cache bool) (*httpTarget, error) {
	sh := cssi.ShardedFrom(idx)
	api := server.NewSharded(sh, d.corpus.Model)
	api.SetLogger(slog.New(slog.NewTextHandler(io.Discard, nil)))
	// The gate is in the path but sized never to shed: shedding belongs
	// to `cssibench -exp serve`, and a failed request here is a bug.
	if err := api.SetAdmissionLimits(4*clients, 64, time.Second); err != nil {
		return nil, err
	}
	if cache {
		api.EnableResultCache(cacheEntries)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	t := &httpTarget{sh: sh, handler: api.Handler(), served: make(chan error, 1), base: "http://" + ln.Addr().String()}
	// The indirection lets the traced run swap a span-recording wrapper
	// in after set-up without restarting the listener.
	t.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { t.handler.ServeHTTP(w, r) })}
	go func() { t.served <- t.srv.Serve(ln) }()
	for i := 0; i < clients; i++ {
		t.clients = append(t.clients, &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}})
	}
	resp, err := t.clients[0].Get(t.base + "/v1/healthz")
	if err != nil {
		_ = t.close()
		return nil, err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return t, nil
}

// post sends one pre-encoded search and returns the raw reply. reqID,
// when non-empty, travels as X-Request-Id so server-side spans share it.
func (t *httpTarget) post(c *http.Client, body []byte, reqID string, buf *bytes.Buffer) error {
	req, err := http.NewRequest(http.MethodPost, t.base+"/v1/search", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if reqID != "" {
		req.Header.Set("X-Request-Id", reqID)
	}
	return do(c, req, buf)
}

// do runs req, drains the reply into buf and fails on a non-2xx status.
func do(c *http.Client, req *http.Request, buf *bytes.Buffer) error {
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return &statusError{code: resp.StatusCode, msg: fmt.Sprintf("%s %s: status %d: %.120s", req.Method, req.URL.Path, resp.StatusCode, buf.Bytes())}
	}
	return nil
}

// statusError is a non-2xx reply; the status tells a shed request (429)
// from any other failure.
type statusError struct {
	code int
	msg  string
}

func (e *statusError) Error() string { return e.msg }

func (t *httpTarget) search(q *cssi.Object, dst []cssi.Result, _ *cssi.Stats) ([]cssi.Result, error) {
	var buf bytes.Buffer
	if err := t.post(t.clients[0], encodeSearch(q, ""), "", &buf); err != nil {
		return nil, err
	}
	var rep searchReply
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		return nil, fmt.Errorf("decoding search reply: %w", err)
	}
	dst = dst[:0]
	for _, r := range rep.Results {
		dst = append(dst, cssi.Result{ID: r.ID, Dist: r.Dist})
	}
	return dst, nil
}

func (t *httpTarget) write(op cssi.Op) error {
	var req *http.Request
	var err error
	switch op.Kind {
	case cssi.OpDelete:
		req, err = http.NewRequest(http.MethodDelete, t.base+"/v1/objects?id="+strconv.FormatUint(uint64(op.ID), 10), nil)
	default:
		method := http.MethodPost
		if op.Kind == cssi.OpUpdate {
			method = http.MethodPut
		}
		o := &op.Object
		body, merr := json.Marshal(objectBody{ID: o.ID, X: o.X, Y: o.Y, Vec: o.Vec})
		if merr != nil {
			panic(merr)
		}
		req, err = http.NewRequest(method, t.base+"/v1/objects", bytes.NewReader(body))
	}
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	return do(t.clients[0], req, &buf)
}

// close stops the listener and waits for the serve loop to end.
func (t *httpTarget) close() error {
	for _, c := range t.clients {
		c.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := t.srv.Shutdown(ctx)
	if serr := <-t.served; serr != nil && serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	return err
}
