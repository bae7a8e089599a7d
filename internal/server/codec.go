package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"
)

// The wire codec: the bodies that carry vectors and results —
// queryRequest, batchRequest, objectRequest in, queryResponse and
// batchResponse out — are read and written here without reflection.
//
// Decoding scans a strict subset of JSON in one pass (see scanner). A
// body outside the subset is not an error: the struct is zeroed and
// encoding/json decodes the same bytes, and its verdict — value or
// error text — stands. So the set of accepted bodies, the decoded
// values and every 400 message are encoding/json's by construction;
// the scanner only has to agree with it on the bodies it accepts, which
// the differential fuzz targets check.
//
// Encoding appends into a pooled buffer under encoding/json's own
// number and string rules, so a reply is byte-identical to what
// json.Encoder would have written for the same struct.

// Request bodies are capped per route at what the route can
// legitimately carry: bodySlack for keys, text and keywords, plus, for
// each vector the body may hold, its floats and the keys around them.
const (
	bodySlack      = 64 << 10
	bytesPerFloat  = 32 // a float64 printed to 17 digits with sign, exponent and separator is 26
	bytesPerVector = 256
	// maxPooledBuf is the largest buffer that goes back to a pool, so
	// one maximal batch does not pin 14 MB per pooled entry.
	maxPooledBuf = 64 << 10
)

// Bodies in flight live in pooled scanners and encoders: the struct is
// already on the heap, so handing it to a request type's scan method or
// to an encode callback allocates nothing.
var (
	scannerPool = sync.Pool{New: func() any { return new(scanner) }}
	encoderPool = sync.Pool{New: func() any { return new(wireEncoder) }}
)

// bodyLimit is the request-body cap of a route whose body holds up to
// vectors embedding vectors.
func (s *Server) bodyLimit(vectors int) int64 {
	return bodySlack + int64(vectors)*(bytesPerVector+bytesPerFloat*int64(s.idx.Dim()))
}

// readBody appends r's bytes to buf until EOF. size, when positive, is
// the expected length and sizes the buffer once.
func readBody(r io.Reader, buf []byte, size int64) ([]byte, error) {
	if need := max(int(size)+1, 512); need > cap(buf) {
		buf = make([]byte, 0, need)
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// wireRequest is a request body the codec reads.
type wireRequest interface {
	// scan parses one object of the strict subset into the receiver; on
	// false the receiver holds garbage.
	scan(sc *scanner) bool
	// reset zeroes the receiver for the encoding/json decoder.
	reset()
}

func (q *queryRequest) reset()  { *q = queryRequest{} }
func (b *batchRequest) reset()  { *b = batchRequest{} }
func (o *objectRequest) reset() { *o = objectRequest{} }

// decodeStd is encoding/json's reading of a request body: the
// reference the scanner is checked against and the path every body
// outside the strict subset takes.
func decodeStd(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// failingReader returns err: the tail of a body whose read failed.
type failingReader struct{ err error }

func (f failingReader) Read([]byte) (int, error) { return 0, f.err }

// decode reads the request body, capped at the limit of a route that
// carries up to vectors vectors, into v. It answers 413 or 400 itself
// and reports whether v is usable.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, vectors int, v wireRequest) bool {
	limit := s.bodyLimit(vectors)
	tooLarge := func() bool {
		writeError(w, r, http.StatusRequestEntityTooLarge,
			"request body exceeds the route's limit of "+strconv.FormatInt(limit, 10)+" bytes")
		return false
	}
	if r.ContentLength > limit {
		return tooLarge() // refused on its declared length, nothing read
	}
	sc := scannerPool.Get().(*scanner)
	defer func() {
		if cap(sc.b) <= maxPooledBuf {
			scannerPool.Put(sc)
		}
	}()
	body, err := readBody(http.MaxBytesReader(w, r.Body, limit), sc.b[:0], r.ContentLength)
	sc.b, sc.dim = body, s.idx.Dim()
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return tooLarge()
	}
	if err == nil && sc.body(v) {
		return true
	}
	v.reset()
	var src io.Reader = bytes.NewReader(body)
	if err != nil {
		// A value that was complete before the read failed still decodes,
		// as it did when the decoder read the body itself.
		src = io.MultiReader(src, failingReader{err})
	}
	if err := decodeStd(src, v); err != nil {
		writeError(w, r, http.StatusBadRequest, "invalid JSON: "+err.Error())
		return false
	}
	return true
}

// decoded adapts a handler that takes its decoded body to an
// http.HandlerFunc. vectors sizes the body cap (see bodyLimit).
func decoded[T any, P interface {
	*T
	wireRequest
}](s *Server, vectors int, h func(http.ResponseWriter, *http.Request, P)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req T
		if s.decode(w, r, vectors, P(&req)) {
			h(w, r, &req)
		}
	}
}

// scanner reads the strict subset of JSON the codec accepts without
// help: objects whose keys are the struct's own, spelled exactly, each
// at most once; strings without escapes that are valid UTF-8; numbers
// that match the JSON grammar (strconv alone also takes 0x1p-2, inf
// and 1_0), integers without fraction or exponent; true and false; no
// null; nothing but whitespace after the closing brace. Every method
// reports false on anything else and the caller falls back to
// encoding/json, so false never has to say why.
type scanner struct {
	b   []byte
	i   int
	dim int // capacity a vec starts with
}

// body parses the whole buffer as exactly one object of v's subset.
func (sc *scanner) body(v wireRequest) bool {
	sc.i = 0
	if !v.scan(sc) {
		return false
	}
	sc.ws()
	return sc.i == len(sc.b)
}

func (sc *scanner) ws() {
	for sc.i < len(sc.b) {
		switch sc.b[sc.i] {
		case ' ', '\t', '\r', '\n':
			sc.i++
		default:
			return
		}
	}
}

// next consumes c, after any whitespace.
func (sc *scanner) next(c byte) bool {
	sc.ws()
	if sc.i < len(sc.b) && sc.b[sc.i] == c {
		sc.i++
		return true
	}
	return false
}

// members walks {"key":value,...}; field parses the value of key.
func (sc *scanner) members(field func(key []byte) bool) bool {
	if !sc.next('{') {
		return false
	}
	if sc.next('}') {
		return true
	}
	for {
		key, ok := sc.rawString()
		if !ok || !sc.next(':') {
			return false
		}
		sc.ws()
		if !field(key) {
			return false
		}
		if !sc.next(',') {
			return sc.next('}')
		}
	}
}

// elements walks [value,...]; elem parses one value.
func (sc *scanner) elements(elem func() bool) bool {
	if !sc.next('[') {
		return false
	}
	if sc.next(']') {
		return true
	}
	for {
		sc.ws()
		if !elem() {
			return false
		}
		if !sc.next(',') {
			return sc.next(']')
		}
	}
}

// once marks bit in seen and reports whether it was clear: a repeated
// key is outside the subset (encoding/json lets the last one win).
func once(seen *uint32, bit uint32) bool {
	first := *seen&bit == 0
	*seen |= bit
	return first
}

// rawString consumes a string, after any whitespace, and returns the
// bytes between its quotes.
func (sc *scanner) rawString() ([]byte, bool) {
	if !sc.next('"') {
		return nil, false
	}
	start, ascii := sc.i, true
	for ; sc.i < len(sc.b); sc.i++ {
		switch c := sc.b[sc.i]; {
		case c == '"':
			s := sc.b[start:sc.i]
			sc.i++
			return s, ascii || utf8.Valid(s)
		case c < ' ' || c == '\\':
			return nil, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, false
}

func (sc *scanner) str(dst *string) bool {
	s, ok := sc.rawString()
	if ok {
		*dst = string(s)
	}
	return ok
}

// number consumes one number of the JSON grammar and returns its text;
// integer reports that it has neither fraction nor exponent.
func (sc *scanner) number() (tok []byte, integer, ok bool) {
	b, i := sc.b, sc.i
	digits := func() bool {
		start := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i > start
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if !digits() {
		return nil, false, false
	}
	integer = true
	if i < len(b) && b[i] == '.' {
		i++
		if !digits() {
			return nil, false, false
		}
		integer = false
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			return nil, false, false
		}
		integer = false
	}
	tok = b[sc.i:i]
	sc.i = i
	return tok, integer, true
}

// float parses a number the way encoding/json fills a float field of
// the given size: strconv's value, and out of range is a failure.
func (sc *scanner) float(bits int) (float64, bool) {
	tok, _, ok := sc.number()
	if !ok {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(tok), bits)
	return f, err == nil
}

func (sc *scanner) float64(dst *float64) bool {
	f, ok := sc.float(64)
	*dst = f
	return ok
}

func (sc *scanner) int64(dst *int64) bool {
	tok, integer, ok := sc.number()
	if !ok || !integer {
		return false
	}
	n, err := strconv.ParseInt(string(tok), 10, 64)
	*dst = n
	return err == nil
}

func (sc *scanner) int(dst *int) bool {
	var n int64
	if !sc.int64(&n) || int64(int(n)) != n {
		return false
	}
	*dst = int(n)
	return true
}

func (sc *scanner) uint32(dst *uint32) bool {
	tok, integer, ok := sc.number()
	if !ok || !integer {
		return false
	}
	n, err := strconv.ParseUint(string(tok), 10, 32)
	*dst = uint32(n)
	return err == nil
}

func (sc *scanner) bool(dst *bool) bool {
	rest := sc.b[sc.i:]
	switch {
	case bytes.HasPrefix(rest, []byte("true")):
		*dst = true
		sc.i += len("true")
	case bytes.HasPrefix(rest, []byte("false")):
		*dst = false
		sc.i += len("false")
	default:
		return false
	}
	return true
}

// The slices start empty, not nil: that is what encoding/json makes of [].

func (sc *scanner) vec(dst *[]float32) bool {
	*dst = make([]float32, 0, sc.dim)
	return sc.elements(func() bool {
		f, ok := sc.float(32)
		*dst = append(*dst, float32(f))
		return ok
	})
}

func (sc *scanner) strings(dst *[]string) bool {
	*dst = []string{}
	return sc.elements(func() bool {
		var s string
		ok := sc.str(&s)
		*dst = append(*dst, s)
		return ok
	})
}

func (q *queryRequest) scan(sc *scanner) bool {
	var seen uint32
	return sc.members(func(key []byte) bool {
		switch string(key) {
		case "x":
			return once(&seen, 1<<0) && sc.float64(&q.X)
		case "y":
			return once(&seen, 1<<1) && sc.float64(&q.Y)
		case "text":
			return once(&seen, 1<<2) && sc.str(&q.Text)
		case "vec":
			return once(&seen, 1<<3) && sc.vec(&q.Vec)
		case "k":
			return once(&seen, 1<<4) && sc.int(&q.K)
		case "lambda":
			return once(&seen, 1<<5) && sc.float64(&q.Lambda)
		case "radius":
			return once(&seen, 1<<6) && sc.float64(&q.Radius)
		case "approx":
			return once(&seen, 1<<7) && sc.bool(&q.Approx)
		case "route":
			q.Route = new(bool)
			return once(&seen, 1<<8) && sc.bool(q.Route)
		case "routeTarget":
			return once(&seen, 1<<9) && sc.float64(&q.RouteTarget)
		case "keywords":
			return once(&seen, 1<<10) && sc.strings(&q.Keywords)
		case "loX":
			return once(&seen, 1<<11) && sc.float64(&q.LoX)
		case "loY":
			return once(&seen, 1<<12) && sc.float64(&q.LoY)
		case "hiX":
			return once(&seen, 1<<13) && sc.float64(&q.HiX)
		case "hiY":
			return once(&seen, 1<<14) && sc.float64(&q.HiY)
		case "deadlineMs":
			return once(&seen, 1<<15) && sc.int64(&q.DeadlineMs)
		case "cache":
			return once(&seen, 1<<16) && sc.str(&q.Cache)
		}
		return false
	})
}

func (b *batchRequest) scan(sc *scanner) bool {
	var seen uint32
	return sc.members(func(key []byte) bool {
		switch string(key) {
		case "queries":
			b.Queries = []queryRequest{}
			return once(&seen, 1<<0) && sc.elements(func() bool {
				b.Queries = append(b.Queries, queryRequest{})
				return b.Queries[len(b.Queries)-1].scan(sc)
			})
		case "k":
			return once(&seen, 1<<1) && sc.int(&b.K)
		case "lambda":
			return once(&seen, 1<<2) && sc.float64(&b.Lambda)
		case "approx":
			return once(&seen, 1<<3) && sc.bool(&b.Approx)
		case "route":
			b.Route = new(bool)
			return once(&seen, 1<<4) && sc.bool(b.Route)
		case "routeTarget":
			return once(&seen, 1<<5) && sc.float64(&b.RouteTarget)
		case "workers":
			return once(&seen, 1<<6) && sc.int(&b.Workers)
		case "deadlineMs":
			return once(&seen, 1<<7) && sc.int64(&b.DeadlineMs)
		case "cache":
			return once(&seen, 1<<8) && sc.str(&b.Cache)
		}
		return false
	})
}

func (o *objectRequest) scan(sc *scanner) bool {
	var seen uint32
	return sc.members(func(key []byte) bool {
		switch string(key) {
		case "id":
			return once(&seen, 1<<0) && sc.uint32(&o.ID)
		case "x":
			return once(&seen, 1<<1) && sc.float64(&o.X)
		case "y":
			return once(&seen, 1<<2) && sc.float64(&o.Y)
		case "text":
			return once(&seen, 1<<3) && sc.str(&o.Text)
		case "vec":
			return once(&seen, 1<<4) && sc.vec(&o.Vec)
		}
		return false
	})
}

// wireEncoder appends a reply to buf under encoding/json's rules. The
// first value it cannot represent sticks in err and the reply is
// abandoned for the 500 envelope.
type wireEncoder struct {
	buf []byte
	err error
}

func (e *wireEncoder) raw(s string) { e.buf = append(e.buf, s...) }

// float writes f as encoding/json does: shortest digits that round-trip,
// fixed notation except below 1e-6 or from 1e21 up, and a two-digit
// negative exponent trimmed of its leading zero (e-07 is written e-7).
func (e *wireEncoder) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if e.err == nil {
			e.err = errors.New("json: unsupported value: " + strconv.FormatFloat(f, 'g', -1, 64))
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.buf = strconv.AppendFloat(e.buf, f, format, -1, 64)
	if n := len(e.buf); format == 'e' && n >= 4 && e.buf[n-4] == 'e' && e.buf[n-3] == '-' && e.buf[n-2] == '0' {
		e.buf[n-2] = e.buf[n-1]
		e.buf = e.buf[:n-1]
	}
}

const hexDigits = "0123456789abcdef"

// str writes s quoted and escaped as json.Encoder does by default:
// \" \\ \b \f \n \r \t by name, other control bytes and the HTML
// characters < > & as \u00XX, U+2028 and U+2029 as \u2028 and \u2029,
// and each byte of invalid UTF-8 as \ufffd.
func (e *wireEncoder) str(s string) {
	b := append(e.buf, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c >= utf8.RuneSelf {
			r, size := utf8.DecodeRuneInString(s[i:])
			switch {
			case r == utf8.RuneError && size == 1:
				b = append(append(b, s[start:i]...), `\ufffd`...)
			case r == '\u2028' || r == '\u2029':
				b = append(append(b, s[start:i]...), `\u202`...)
				b = append(b, hexDigits[r&0xF])
			default:
				i += size
				continue
			}
			i += size
			start = i
			continue
		}
		if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
			i++
			continue
		}
		b = append(b, s[start:i]...)
		switch c {
		case '"', '\\':
			b = append(b, '\\', c)
		case '\b':
			b = append(b, '\\', 'b')
		case '\f':
			b = append(b, '\\', 'f')
		case '\n':
			b = append(b, '\\', 'n')
		case '\r':
			b = append(b, '\\', 'r')
		case '\t':
			b = append(b, '\\', 't')
		default:
			b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
		}
		i++
		start = i
	}
	e.buf = append(append(b, s[start:]...), '"')
}

func (e *wireEncoder) results(rs []resultItem) {
	if rs == nil {
		e.raw("null")
		return
	}
	e.raw("[")
	for i := range rs {
		it := &rs[i]
		if i > 0 {
			e.raw(",")
		}
		e.raw(`{"id":`)
		e.buf = strconv.AppendUint(e.buf, uint64(it.ID), 10)
		e.raw(`,"dist":`)
		e.float(it.Dist)
		e.raw(`,"x":`)
		e.float(it.X)
		e.raw(`,"y":`)
		e.float(it.Y)
		if it.Text != "" {
			e.raw(`,"text":`)
			e.str(it.Text)
		}
		e.raw("}")
	}
	e.raw("]")
}

// tail writes the members every query reply ends with and closes it.
func (e *wireEncoder) tail(visited int64, m *respMeta) {
	e.raw(`,"visited":`)
	e.buf = strconv.AppendInt(e.buf, visited, 10)
	if m != nil {
		e.raw(`,"meta":{"requestId":`)
		e.str(m.RequestID)
		e.raw(`,"partial":`)
		e.buf = strconv.AppendBool(e.buf, m.Partial)
		e.raw(`,"cacheHit":`)
		e.buf = strconv.AppendBool(e.buf, m.CacheHit)
		if m.SnapshotID != 0 {
			e.raw(`,"snapshotId":`)
			e.buf = strconv.AppendUint(e.buf, m.SnapshotID, 10)
		}
		if m.QueueWaitMs != 0 {
			e.raw(`,"queueWaitMs":`)
			e.float(m.QueueWaitMs)
		}
		e.raw("}")
	}
	e.raw("}\n")
}

func (e *wireEncoder) queryResponse(resp *queryResponse) {
	e.raw(`{"results":`)
	e.results(resp.Results)
	e.tail(resp.Visited, resp.Meta)
}

func (e *wireEncoder) batchResponse(resp *batchResponse) {
	e.raw(`{"results":`)
	if resp.Results == nil {
		e.raw("null")
	} else {
		e.raw("[")
		for i, rs := range resp.Results {
			if i > 0 {
				e.raw(",")
			}
			e.results(rs)
		}
		e.raw("]")
	}
	e.tail(resp.Visited, resp.Meta)
}

// writeEncoded sends a reply that encode appends to a pooled encoder.
// Nothing reaches w before the body is complete, so a value that cannot
// be encoded becomes the 500 envelope rather than a 200 cut short.
func writeEncoded(w http.ResponseWriter, r *http.Request, status int, encode func(e *wireEncoder)) {
	e := encoderPool.Get().(*wireEncoder)
	defer func() {
		if cap(e.buf) <= maxPooledBuf {
			encoderPool.Put(e)
		}
	}()
	e.buf, e.err = e.buf[:0], nil
	encode(e)
	if e.err != nil {
		writeError(w, r, http.StatusInternalServerError, "encoding response: "+e.err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(e.buf) // a client that hung up is not the handler's error
}

// writeJSON is the reflection encoder the cold routes keep (health,
// stats, traces, explain, object acknowledgements, error envelopes).
func writeJSON(w http.ResponseWriter, r *http.Request, status int, v any) {
	writeEncoded(w, r, status, func(e *wireEncoder) {
		out := bytes.NewBuffer(e.buf)
		e.err = json.NewEncoder(out).Encode(v)
		e.buf = out.Bytes()
	})
}
