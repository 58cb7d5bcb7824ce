package graphapi

import (
	"net/http"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"

	"repro/internal/socialgraph"
)

// The hot response shapes — the like ack, the error envelope, /batch
// results and the likes page — are rendered by appending into a pooled
// buffer instead of going through encoding/json reflection.
// Each renderer produces exactly the bytes json.NewEncoder(w).Encode
// writes for the equivalent map or struct (map keys sorted, struct fields
// in declaration order); sendRendered adds the encoder's trailing
// newline. The rarer shapes stay on writeJSON.

// likeAck is the body of a successful like, standalone or as one
// /batch result.
const likeAck = `{"success":true}`

// likeAckLine is the standalone like ack response body.
var likeAckLine = []byte(likeAck + "\n")

// timeLayout is the Graph API's timestamp format. Its output never needs
// escaping inside a JSON string.
const timeLayout = "2006-01-02T15:04:05Z"

// encodeBufs pools the render buffers.
var encodeBufs = sync.Pool{New: func() any { return new([]byte) }}

// writeBody sends body as a JSON response with its Content-Length set.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	_, _ = w.Write(body) // a failed write means the client is gone
}

// sendRendered sends body, rendered into the pooled buffer *bp, followed
// by a newline, then returns the buffer to the pool.
func sendRendered(w http.ResponseWriter, status int, bp *[]byte, body []byte) {
	body = append(body, '\n')
	writeBody(w, status, body)
	*bp = body[:0]
	encodeBufs.Put(bp)
}

// writeAck answers a successful like.
func writeAck(w http.ResponseWriter) {
	writeBody(w, http.StatusOK, likeAckLine)
}

// writeBatch answers a /batch request.
func writeBatch(w http.ResponseWriter, results []batchResult) {
	bp := encodeBufs.Get().(*[]byte)
	sendRendered(w, http.StatusOK, bp, appendBatchResults((*bp)[:0], results))
}

// appendErrorEnvelope appends {"error":{"message":…,"type":…,"code":…}}.
func appendErrorEnvelope(b []byte, ae *APIError) []byte {
	b = append(b, `{"error":{"message":`...)
	b = appendJSONString(b, ae.Message)
	b = append(b, `,"type":`...)
	b = appendJSONString(b, ae.Type)
	b = append(b, `,"code":`...)
	b = strconv.AppendInt(b, int64(ae.Code), 10)
	return append(b, "}}"...)
}

// appendBatchResults appends the /batch answer: [{"code":…,"body":…},…].
func appendBatchResults(b []byte, results []batchResult) []byte {
	b = append(b, '[')
	for i, r := range results {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"code":`...)
		b = strconv.AppendInt(b, int64(r.Code), 10)
		b = append(b, `,"body":`...)
		b = appendJSONString(b, r.Body)
		b = append(b, '}')
	}
	return append(b, ']')
}

// appendLikesPage appends a likes page: {"data":[{"id":…,"time":…},…]},
// with "paging":{"cursors":{"after":…}} when more likes remain. The
// cursor encodes next, the store's arrival-sequence position (stable
// across retention sweeps), not a physical offset.
func appendLikesPage(b []byte, likes []socialgraph.Like, next int, more bool) []byte {
	b = append(b, `{"data":[`...)
	for i, l := range likes {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"id":`...)
		b = appendJSONString(b, l.AccountID)
		b = append(b, `,"time":`...)
		b = appendTime(b, l.At)
		b = append(b, '}')
	}
	b = append(b, ']')
	if more {
		b = append(b, `,"paging":{"cursors":{"after":"`...)
		b = appendCursor(b, next)
		b = append(b, `"}}`...)
	}
	return append(b, '}')
}

// appendTime appends t as a quoted Graph API timestamp.
func appendTime(b []byte, t time.Time) []byte {
	b = t.UTC().AppendFormat(append(b, '"'), timeLayout)
	return append(b, '"')
}

// appendJSONString appends s as a JSON string, byte for byte as
// encoding/json writes it: quote, backslash and control bytes escaped
// (\b \f \n \r \t by name, the rest as \u00XX), <, > and & escaped for
// HTML, U+2028 and U+2029 escaped, and each invalid UTF-8 byte replaced by
// \ufffd.
func appendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
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
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
