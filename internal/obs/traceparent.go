package obs

import "crypto/rand"

// W3C trace-context (traceparent) support. The server parses the
// inbound header on every /v1 route so trace context survives process
// boundaries, joins the trace ID to the X-Request-Id plumbing, and
// echoes a child traceparent so callers can continue the trace.
//
// Format (version 00): "00-<32 hex trace-id>-<16 hex parent-id>-<2 hex
// flags>", all lowercase. Per the spec, an all-zero trace or parent ID
// is invalid, and receivers accept headers with a higher version as
// long as the version-00 prefix parses.

const traceParentLen = 2 + 1 + 32 + 1 + 16 + 1 + 2

// ParseTraceParent parses a traceparent header value. It returns the
// trace ID and parent span ID (both lowercase hex, without dashes) and
// whether the header was valid. Invalid or absent headers return
// ok=false; callers then start a fresh trace.
func ParseTraceParent(h string) (traceID, parentID string, ok bool) {
	if len(h) < traceParentLen {
		return "", "", false
	}
	// Version-00 headers are exactly 55 chars; future versions may
	// append fields after another dash.
	if len(h) > traceParentLen && h[traceParentLen] != '-' {
		return "", "", false
	}
	if h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return "", "", false
	}
	version, tid, pid, flags := h[0:2], h[3:35], h[36:52], h[53:55]
	if !isLowerHex(version) || !isLowerHex(tid) || !isLowerHex(pid) || !isLowerHex(flags) {
		return "", "", false
	}
	// Version ff is explicitly forbidden, and a version-00 header must
	// not carry trailing fields.
	if version == "ff" || (version == "00" && len(h) != traceParentLen) {
		return "", "", false
	}
	if allZero(tid) || allZero(pid) {
		return "", "", false
	}
	return tid, pid, true
}

// FormatTraceParent renders a version-00 traceparent with the sampled
// flag set, suitable for response echoing and outbound propagation.
func FormatTraceParent(traceID, spanID string) string {
	return "00-" + traceID + "-" + spanID + "-01"
}

// NewTraceID returns a fresh 32-hex-char W3C trace ID.
func NewTraceID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fallbackRequestID() + fallbackRequestID()
	}
	return hexString(b[:])
}

// NewSpanID returns a fresh 16-hex-char W3C span ID. It shares
// NewRequestID's format on purpose: the server uses the request ID as
// its span ID, which is what joins the two correlation schemes.
func NewSpanID() string { return NewRequestID() }

// ValidSpanID reports whether s has the shape of a W3C span ID:
// exactly 16 lowercase hex chars, not all zero. Request IDs minted by
// NewRequestID always pass; honored inbound X-Request-Id values of
// other formats do not, and callers then mint a separate span ID.
func ValidSpanID(s string) bool {
	return len(s) == 16 && isLowerHex(s) && !allZero(s)
}

func isLowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return len(s) > 0
}

func allZero(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] != '0' {
			return false
		}
	}
	return true
}
