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

	"repro"
)

// The wire codec: the bodies that carry vectors and results —
// queryRequest, batchRequest, objectRequest in; the query and batch
// replies and the write acknowledgements out — are read and written
// here without reflection.
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
// number and string rules, straight from the index's results, so a
// reply is byte-identical to what json.Encoder writes for the reply's
// struct: {"results":[{"id","dist","x","y","text" (omitted when
// empty)},...],"visited",
// "meta":{"requestId","partial","cacheHit","snapshotId" and
// "queueWaitMs" (each omitted when zero)}} — a batch reply's results
// being one such array per query.

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
// already on the heap, so handing it to a request type's scan method
// allocates nothing.
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
	if tooBig := (*http.MaxBytesError)(nil); err != nil && errors.As(err, &tooBig) {
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

// number is one number of the JSON grammar as the scan that found it
// read it: its text, and its value as mant × 10^exp when that holds
// every significant digit. A value that does not fit is read from the
// text by strconv, so the fast paths below only ever answer what
// strconv would.
type number struct {
	tok     []byte
	mant    uint64 // the first maxMantDigits digits, a fraction's leading zeros included
	exp     int    // decimal exponent
	nd      int    // digits in mant
	neg     bool
	integer bool // neither fraction nor exponent
	// inexact says mant × 10^exp is not the value: a nonzero digit fell
	// past maxMantDigits, or the exponent has more digits than are read.
	inexact bool
}

// maxMantDigits is the most decimal digits a uint64 always holds.
const maxMantDigits = 19

// maxExp10 is the largest power of ten a float64 holds exactly.
const maxExp10 = 22

var pow10 = [maxExp10 + 1]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// digits consumes the run of decimal digits at b[i:] into n and returns
// the index after it. frac says the run follows the decimal point, so
// each digit kept scales the value by 1/10. Past maxMantDigits a zero
// is dropped (in the integer part it scales the value by 10) and any
// other digit makes n inexact.
func (n *number) digits(b []byte, i int, frac bool) int {
	mant, nd := n.mant, n.nd
	for ; i < len(b); i++ {
		d := uint64(b[i] - '0') // a byte below '0' wraps past 9
		if d > 9 {
			break
		}
		if nd < maxMantDigits {
			mant = mant*10 + d
			nd++
		} else if d != 0 {
			n.inexact = true
		} else if !frac {
			n.exp++
		}
	}
	if frac {
		n.exp -= nd - n.nd
	}
	n.mant, n.nd = mant, nd
	return i
}

// number consumes one number of the JSON grammar into n, reading its
// value in the same pass.
func (sc *scanner) number(n *number) bool {
	b, i := sc.b, sc.i
	if i < len(b) && b[i] == '-' {
		n.neg = true
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else {
		start := i
		if i = n.digits(b, i, false); i == start {
			return false
		}
	}
	n.integer = true
	if i < len(b) && b[i] == '.' {
		i++
		start := i
		if i = n.digits(b, i, true); i == start {
			return false
		}
		n.integer = false
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		neg := false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			neg = b[i] == '-'
			i++
		}
		start, e := i, 0
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			if e >= 10000 { // far past every fast path
				n.inexact = true
				continue
			}
			e = e*10 + int(b[i]-'0')
		}
		if i == start {
			return false
		}
		if neg {
			e = -e
		}
		n.exp += e
		n.integer = false
	}
	n.tok = b[sc.i:i]
	sc.i = i
	return true
}

// float is n's value as strconv.ParseFloat(n.tok, bits) reads it, and
// false where strconv fails (out of range). A mantissa below 2^53 and a
// power of ten up to 10^22 are both exact float64s, so one IEEE multiply
// or divide of them is the correctly rounded float64. Narrowing that to
// float32 rounds once more; it lands where rounding the decimal would
// unless the float64 sits exactly on a float32 rounding midpoint (every
// such midpoint in float32's normal range is a float64, and rounding to
// float64 never crosses one), so those, and anything outside the normal
// range, go to strconv.
func (n *number) float(bits int) (float64, bool) {
	if n.mant == 0 && !n.inexact { // every digit zero, whatever the exponent
		if n.neg {
			return math.Copysign(0, -1), true
		}
		return 0, true
	}
	if !n.inexact && n.mant < 1<<53 && -maxExp10 <= n.exp && n.exp <= maxExp10 {
		f := float64(n.mant)
		if n.exp < 0 {
			f /= pow10[-n.exp]
		} else {
			f *= pow10[n.exp]
		}
		if n.neg {
			f = -f
		}
		if bits == 64 {
			return f, true
		}
		const dropped = 1<<(52-23) - 1 // the float64 mantissa bits float32 drops
		if a := math.Abs(f); a >= 0x1p-126 && a <= math.MaxFloat32 && math.Float64bits(f)&dropped != 1<<(52-23-1) {
			return float64(float32(f)), true
		}
	}
	f, err := strconv.ParseFloat(string(n.tok), bits)
	return f, err == nil
}

// int64 is n's value as strconv.ParseInt(n.tok, 10, 64) reads it, and
// false where it fails; n has neither fraction nor exponent, so past 19
// digits it is out of range.
func (n *number) int64() (int64, bool) {
	if n.inexact || n.exp != 0 {
		return 0, false
	}
	if n.neg {
		return -int64(n.mant), n.mant <= 1<<63
	}
	return int64(n.mant), n.mant <= math.MaxInt64
}

func (sc *scanner) float(bits int) (float64, bool) {
	var n number
	if !sc.number(&n) {
		return 0, false
	}
	return n.float(bits)
}

func (sc *scanner) float64(dst *float64) bool {
	f, ok := sc.float(64)
	*dst = f
	return ok
}

func (sc *scanner) int64(dst *int64) bool {
	var n number
	if !sc.number(&n) || !n.integer {
		return false
	}
	v, ok := n.int64()
	*dst = v
	return ok
}

func (sc *scanner) int(dst *int) bool {
	var n int64
	if !sc.int64(&n) || int64(int(n)) != n {
		return false
	}
	*dst = int(n)
	return true
}

// uint32 reads as strconv.ParseUint(tok, 10, 32), which refuses any
// sign.
func (sc *scanner) uint32(dst *uint32) bool {
	var n number
	if !sc.number(&n) || !n.integer || n.neg {
		return false
	}
	v, ok := n.int64()
	*dst = uint32(v)
	return ok && v <= math.MaxUint32
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

// vec is elements unrolled for the one hot array: no call per element,
// and the slice is stored once, not once per append.
func (sc *scanner) vec(dst *[]float32) bool {
	v := make([]float32, 0, sc.dim)
	if !sc.next('[') {
		return false
	}
	if !sc.next(']') {
		for {
			sc.ws()
			f, ok := sc.float(32)
			if !ok {
				return false
			}
			v = append(v, float32(f))
			if !sc.next(',') {
				break
			}
		}
		if !sc.next(']') {
			return false
		}
	}
	*dst = v
	return true
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
		case "keywords":
			return once(&seen, 1<<8) && sc.strings(&q.Keywords)
		case "loX":
			return once(&seen, 1<<9) && sc.float64(&q.LoX)
		case "loY":
			return once(&seen, 1<<10) && sc.float64(&q.LoY)
		case "hiX":
			return once(&seen, 1<<11) && sc.float64(&q.HiX)
		case "hiY":
			return once(&seen, 1<<12) && sc.float64(&q.HiY)
		case "deadlineMs":
			return once(&seen, 1<<13) && sc.int64(&q.DeadlineMs)
		case "cache":
			return once(&seen, 1<<14) && sc.str(&q.Cache)
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
		case "workers":
			return once(&seen, 1<<4) && sc.int(&b.Workers)
		case "deadlineMs":
			return once(&seen, 1<<5) && sc.int64(&b.DeadlineMs)
		case "cache":
			return once(&seen, 1<<6) && sc.str(&b.Cache)
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

// plainASCII marks the ASCII bytes str writes as they are.
var plainASCII = func() (t [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

// str writes s quoted and escaped as json.Encoder does by default:
// \" \\ \b \f \n \r \t by name, other control bytes and the HTML
// characters < > & as \u00XX, U+2028 and U+2029 as \u2028 and \u2029,
// and each byte of invalid UTF-8 as \ufffd.
func (e *wireEncoder) str(s string) {
	b := append(e.buf, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf && plainASCII[c] {
			i++
			continue
		}
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

// objectSource resolves a result's ID to its object; cssi.Index does,
// on the owning shard.
type objectSource interface {
	Object(id uint32) (cssi.Object, bool)
}

// results writes rs as the reply's array, each result decorated with
// its object's location and text. A result whose object was deleted
// between the search and the decoration keeps its ID and distance with
// empty metadata.
func (e *wireEncoder) results(rs []cssi.Result, objs objectSource) {
	e.raw("[")
	for i, r := range rs {
		if i > 0 {
			e.raw(",")
		}
		o, ok := objs.Object(r.ID)
		if !ok {
			o = cssi.Object{}
		}
		e.raw(`{"id":`)
		e.buf = strconv.AppendUint(e.buf, uint64(r.ID), 10)
		e.raw(`,"dist":`)
		e.float(r.Dist)
		e.raw(`,"x":`)
		e.float(o.X)
		e.raw(`,"y":`)
		e.float(o.Y)
		if o.Text != "" {
			e.raw(`,"text":`)
			e.str(o.Text)
		}
		e.raw("}")
	}
	e.raw("]")
}

// tail writes the members every query reply ends with and closes it.
func (e *wireEncoder) tail(visited int64, m *respMeta) {
	e.raw(`,"visited":`)
	e.buf = strconv.AppendInt(e.buf, visited, 10)
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
	e.raw("}}\n")
}

// queryReply writes the reply of a single-query route.
func (e *wireEncoder) queryReply(rs []cssi.Result, objs objectSource, visited int64, m *respMeta) {
	e.raw(`{"results":`)
	e.results(rs, objs)
	e.tail(visited, m)
}

// batchReply writes the reply of /search/batch: one results array per
// query.
func (e *wireEncoder) batchReply(batches [][]cssi.Result, objs objectSource, visited int64, m *respMeta) {
	e.raw(`{"results":[`)
	for i, rs := range batches {
		if i > 0 {
			e.raw(",")
		}
		e.results(rs, objs)
	}
	e.raw("]")
	e.tail(visited, m)
}

// ack writes a write's acknowledgement, {"key":id}, as json.Encoder
// writes a one-entry map of it.
func (e *wireEncoder) ack(key string, id uint64) {
	e.raw(`{"`)
	e.raw(key)
	e.raw(`":`)
	e.buf = strconv.AppendUint(e.buf, id, 10)
	e.raw("}\n")
}

// jsonContentType is every reply's Content-Type value; its capacity of
// one makes an append to it copy.
var jsonContentType = []string{"application/json"}

// newEncoder takes a pooled encoder for one reply; send returns it.
func newEncoder() *wireEncoder {
	e := encoderPool.Get().(*wireEncoder)
	e.buf, e.err = e.buf[:0], nil
	return e
}

// send writes the reply e holds with status and returns e to the pool.
// Nothing reaches w before the body is complete, so a value that cannot
// be encoded becomes the 500 envelope rather than a 200 cut short.
func (e *wireEncoder) send(w http.ResponseWriter, r *http.Request, status int) {
	defer func() {
		if cap(e.buf) <= maxPooledBuf {
			encoderPool.Put(e)
		}
	}()
	if e.err != nil {
		writeError(w, r, http.StatusInternalServerError, "encoding response: "+e.err.Error())
		return
	}
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	_, _ = w.Write(e.buf) // a client that hung up is not the handler's error
}

// writeAck sends a write's acknowledgement.
func writeAck(w http.ResponseWriter, r *http.Request, status int, key string, id uint64) {
	e := newEncoder()
	e.ack(key, id)
	e.send(w, r, status)
}

// writeJSON is the reflection encoder the cold routes keep (health,
// stats, traces, explain, error envelopes).
func writeJSON(w http.ResponseWriter, r *http.Request, status int, v any) {
	e := newEncoder()
	out := bytes.NewBuffer(e.buf)
	e.err = json.NewEncoder(out).Encode(v)
	e.buf = out.Bytes()
	e.send(w, r, status)
}
