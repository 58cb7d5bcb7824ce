package graphapi

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"repro/internal/provider"
	"repro/internal/socialgraph"
)

// The tests below pin every rendered response shape to the bytes the
// encoding/json code it replaced wrote: the reference values are built
// exactly as the handlers built them before rendering.

// errorEnvelope is the JSON error body, as encoding/json sees it.
type errorEnvelope struct {
	Error struct {
		Message string `json:"message"`
		Type    string `json:"type"`
		Code    int    `json:"code"`
	} `json:"error"`
}

func envelopeOf(ae *APIError) errorEnvelope {
	var env errorEnvelope
	env.Error.Message = ae.Message
	env.Error.Type = ae.Type
	env.Error.Code = ae.Code
	return env
}

// hostileStrings exercise every escaping rule of encoding/json.
var hostileStrings = []string{
	"",
	"plain message",
	`quote " backslash \ slash /`,
	"<script>alert('x')</script> & more",
	"line\u2028separator\u2029paragraph",
	"control \x00\x01\x07\x0b\x1b\x1f \b\f\n\r\t \x7f",
	"invalid utf-8 \xff\xfe \xc3\x28 \xe2\x82 \xed\xa0\x80 end\xc3",
	"multibyte é ü 漢字 😀",
	"(#520) graphapi: \"p1\" already liked by <member> & co",
}

// jsonEncode is what writeJSON put on the wire: v through json.Encoder,
// trailing newline included.
func jsonEncode(t *testing.T, v any) string {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// checkResponse compares a recorded response with the encoding/json body
// and checks the framing headers.
func checkResponse(t *testing.T, rec *httptest.ResponseRecorder, status int, want string) {
	t.Helper()
	if got := rec.Body.String(); got != want {
		t.Fatalf("body\n got %q\nwant %q", got, want)
	}
	if rec.Code != status {
		t.Fatalf("status = %d, want %d", rec.Code, status)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
	if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(want)) {
		t.Fatalf("Content-Length = %q for a %d-byte body", cl, len(want))
	}
}

func TestRenderLikeAckMatchesEncodingJSON(t *testing.T) {
	rec := httptest.NewRecorder()
	writeAck(rec)
	checkResponse(t, rec, http.StatusOK, jsonEncode(t, map[string]any{"success": true}))
}

func TestRenderErrorEnvelopeMatchesEncodingJSON(t *testing.T) {
	kinds := []provider.ErrKind{provider.KindInvalidParam, provider.KindInvalidToken,
		provider.KindRateLimited, provider.KindNotFound, provider.KindDuplicate}
	for i, msg := range hostileStrings {
		for j, typ := range []string{"OAuthException", msg} {
			ae := &APIError{Code: 100*i - j, Type: typ, Message: msg, Kind: kinds[i%len(kinds)]}
			rec := httptest.NewRecorder()
			(&httpAPI{}).writeError(rec, ae)
			checkResponse(t, rec, httpStatus(ae.Kind), jsonEncode(t, envelopeOf(ae)))
		}
	}
}

func TestRenderBatchResultsMatchEncodingJSON(t *testing.T) {
	h := &httpAPI{}
	results := []batchResult{h.likeBatchResult(nil)}
	for i, msg := range hostileStrings {
		ae := &APIError{Code: 520 + i, Type: "OAuthException", Message: msg, Kind: provider.KindDuplicate}
		res := h.likeBatchResult(ae)
		want, err := json.Marshal(envelopeOf(ae))
		if err != nil {
			t.Fatal(err)
		}
		if res.Code != http.StatusBadRequest || res.Body != string(want) {
			t.Fatalf("batch error result = %d %q, want 400 %q", res.Code, res.Body, want)
		}
		results = append(results, res)
	}
	// Replayed operations embed whatever their handler wrote, trimmed.
	page := appendLikesPage(nil, []socialgraph.Like{{AccountID: "1<2>", At: t0}}, 7, true)
	results = append(results,
		batchResult{Code: http.StatusOK, Body: string(page)},
		batchResult{Code: http.StatusOK, Body: `{"id":"p1_c2"}`},
		batchResult{Code: http.StatusBadRequest, Body: `{"error":{"message":"bad batch operation"}}`},
		batchResult{Code: http.StatusOK, Body: ""},
	)
	for _, n := range []int{1, 2, len(results)} {
		rec := httptest.NewRecorder()
		writeBatch(rec, results[:n])
		checkResponse(t, rec, http.StatusOK, jsonEncode(t, results[:n]))
	}
}

// encodeCursor wraps an offset as an opaque cursor string.
func encodeCursor(offset int) string {
	return string(appendCursor(nil, offset))
}

// pagingEnvelopeAt builds the "paging" object from a store-provided next
// cursor. The cursor is an arrival-sequence position (stable across
// retention sweeps), not a physical offset; on a store that has never
// evicted or purged, the two coincide.
func pagingEnvelopeAt(next int, more bool) map[string]any {
	if !more {
		return nil
	}
	return map[string]any{
		"cursors": map[string]any{"after": encodeCursor(next)},
	}
}

// likesPageJSON is the page value the likes handler encoded before
// rendering.
func likesPageJSON(likes []socialgraph.Like, next int, more bool) map[string]any {
	data := make([]map[string]any, 0, len(likes))
	for _, l := range likes {
		data = append(data, map[string]any{
			"id":   l.AccountID,
			"time": l.At.UTC().Format("2006-01-02T15:04:05Z"),
		})
	}
	body := map[string]any{"data": data}
	if paging := pagingEnvelopeAt(next, more); paging != nil {
		body["paging"] = paging
	}
	return body
}

func TestRenderLikesPageMatchesEncodingJSON(t *testing.T) {
	ist := time.FixedZone("IST", 5*3600+1800)
	times := []time.Time{t0, t0.Add(1500 * time.Millisecond).In(ist), time.Date(12345, 1, 2, 3, 4, 5, 6, time.UTC), {}}
	var likes []socialgraph.Like
	for i, s := range hostileStrings {
		likes = append(likes, socialgraph.Like{AccountID: s, At: times[i%len(times)]})
	}
	for _, n := range []int{0, 1, len(likes)} {
		for _, pg := range []struct {
			next int
			more bool
		}{{0, false}, {n, true}, {1 << 40, true}} {
			t.Run(fmt.Sprintf("rows=%d/next=%d/more=%v", n, pg.next, pg.more), func(t *testing.T) {
				rec := httptest.NewRecorder()
				sendRendered(rec, http.StatusOK, new([]byte), appendLikesPage(nil, likes[:n], pg.next, pg.more))
				checkResponse(t, rec, http.StatusOK, jsonEncode(t, likesPageJSON(likes[:n], pg.next, pg.more)))
			})
		}
	}
}

// TestCursorEncodingUnchanged pins appendCursor to the cursor strings the
// pages carried before rendering.
func TestCursorEncodingUnchanged(t *testing.T) {
	for _, off := range []int{0, 7, 25, 12345, 1 << 40} {
		want := base64.URLEncoding.EncodeToString([]byte(strconv.Itoa(off)))
		if got := string(appendCursor(nil, off)); got != want {
			t.Fatalf("cursor for %d = %q, want %q", off, got, want)
		}
	}
}

// TestRenderedLikesPagesThroughHandler walks real likes pages through
// the handler stack, where bodies are rendered into reused pool buffers.
func TestRenderedLikesPagesThroughHandler(t *testing.T) {
	f := newFixture(t)
	seedLikes(t, f, 5)
	tok := f.token(t)
	h := Handler(f.api)
	for after, pages := 0, 1; ; pages++ {
		likes, next, more := f.graph.LikesPage(f.post.ID, after, 2)
		rec := httptest.NewRecorder()
		target := fmt.Sprintf("/%s/likes?access_token=%s&limit=2&after=%s", f.post.ID, tok, encodeCursor(after))
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
		checkResponse(t, rec, http.StatusOK, jsonEncode(t, likesPageJSON(likes, next, more)))
		if !more {
			if pages < 3 {
				t.Fatalf("%d pages, want 3", pages)
			}
			return
		}
		after = next
	}
}

func FuzzAppendJSONString(f *testing.F) {
	for _, s := range hostileStrings {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONString([]byte("prefix"), s); !bytes.Equal(got, append([]byte("prefix"), want...)) {
			t.Fatalf("appendJSONString(%q) = %s, want %s", s, got[len("prefix"):], want)
		}
	})
}
