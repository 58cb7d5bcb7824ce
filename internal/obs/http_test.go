package obs

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/simclock"
)

func TestMiddleware(t *testing.T) {
	clock := simclock.NewSimulated(traceEpoch)
	o := New(clock, DefaultPlatformLabel)
	handler := o.Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/missing" {
			w.WriteHeader(http.StatusNotFound)
			return
		}
		w.Write([]byte("ok"))
	}), "api", func(path string) string {
		if strings.HasPrefix(path, "/post") {
			return "/{object}"
		}
		return path
	})

	for _, path := range []string{"/post1", "/post2", "/missing"} {
		req := httptest.NewRequest("GET", path, nil)
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
	}

	var b strings.Builder
	if err := o.M().WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`api_http_requests_total{endpoint="/{object}",status="200"} 2`,
		`api_http_requests_total{endpoint="/missing",status="404"} 1`,
		`api_http_request_seconds_count{endpoint="/{object}"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}

	spans := o.T().Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	attrs := map[string]string{}
	for _, a := range spans[2].Attrs {
		attrs[a.Key] = a.Value
	}
	if attrs["status"] != "404" || attrs["endpoint"] != "/missing" || attrs["method"] != "GET" {
		t.Errorf("span attrs = %v", attrs)
	}
}

// TestMiddlewareJoinsRemoteTrace verifies a propagated X-Trace-Id /
// X-Parent-Span pair keeps the server-side span on the caller's trace.
func TestMiddlewareJoinsRemoteTrace(t *testing.T) {
	o := New(simclock.NewSimulated(traceEpoch), DefaultPlatformLabel)
	handler := o.Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// The joined span must be visible to the handler for nesting.
		if s := SpanFromContext(r.Context()); s == nil || s.TraceID != "t0000beef" {
			t.Errorf("handler span = %+v", s)
		}
	}), "api", nil)

	req := httptest.NewRequest("POST", "/x/likes", nil)
	req.Header.Set(HeaderTraceID, "t0000beef")
	req.Header.Set(HeaderParentSpan, "s0000beef")
	handler.ServeHTTP(httptest.NewRecorder(), req)

	spans := o.T().Spans()
	if len(spans) != 1 || spans[0].Trace != "t0000beef" || spans[0].Parent != "s0000beef" {
		t.Errorf("spans = %+v", spans)
	}
}

func TestMiddlewareLatencyUsesInjectedClock(t *testing.T) {
	clock := simclock.NewSimulated(traceEpoch)
	o := New(clock, DefaultPlatformLabel)
	handler := o.Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		clock.Advance(250 * time.Millisecond)
	}), "api", nil)
	handler.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/me", nil))

	var b strings.Builder
	if err := o.M().WriteText(&b); err != nil {
		t.Fatal(err)
	}
	// 0.25s lands exactly on the le="0.25" default bucket boundary.
	if !strings.Contains(b.String(), `api_http_request_seconds_bucket{endpoint="/me",le="0.25"} 1`) {
		t.Errorf("latency not measured in simulated time:\n%s", b.String())
	}
}

func TestRegisterDebug(t *testing.T) {
	o := New(simclock.NewSimulated(traceEpoch), DefaultPlatformLabel)
	o.M().Counter("x_total", "X.").Inc()
	_, s := o.T().StartSpan(nil, "a")
	s.End()

	mux := http.NewServeMux()
	o.RegisterDebug(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	get := func(path string) (*http.Response, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var b strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			b.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return resp, b.String()
	}

	resp, body := get("/metrics")
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("/metrics content type = %q", ct)
	}
	if !strings.Contains(body, "x_total 1") {
		t.Errorf("/metrics body = %q", body)
	}

	_, body = get("/debug/traces")
	if !strings.Contains(body, `"name":"a"`) {
		t.Errorf("/debug/traces body = %q", body)
	}

	resp, _ = get("/debug/pprof/")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/ status = %d", resp.StatusCode)
	}
}

func TestNilObserver(t *testing.T) {
	var o *Observer
	if o.T() != nil || o.M() != nil {
		t.Error("nil observer returned live components")
	}
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {})
	if got := o.Middleware(inner, "api", nil); got == nil {
		t.Error("nil observer Middleware returned nil handler")
	}
}

// TestTracesHandlerFilter: ?trace=<id> on /debug/traces pulls a single
// request tree out of a ring holding spans from many traces.
func TestTracesHandlerFilter(t *testing.T) {
	o := New(simclock.NewSimulated(traceEpoch), DefaultPlatformLabel)
	ctx, root := o.T().StartSpan(nil, "root")
	_, child := o.T().StartSpan(ctx, "child")
	child.End()
	root.End()
	_, other := o.T().StartSpan(nil, "other")
	other.End()

	mux := http.NewServeMux()
	o.RegisterDebug(mux)

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?trace="+root.TraceID, nil))
	body := rec.Body.String()
	if !strings.Contains(body, `"name":"root"`) || !strings.Contains(body, `"name":"child"`) {
		t.Errorf("filtered export missing the requested trace:\n%s", body)
	}
	if strings.Contains(body, `"name":"other"`) {
		t.Errorf("filtered export leaked a foreign trace:\n%s", body)
	}
	if lines := strings.Count(strings.TrimRight(body, "\n"), "\n") + 1; lines != 2 {
		t.Errorf("want 2 JSONL lines, got %d:\n%s", lines, body)
	}

	// No filter: everything comes back.
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	if body := rec.Body.String(); !strings.Contains(body, `"name":"other"`) {
		t.Errorf("unfiltered export missing spans:\n%s", body)
	}

	// Unknown ID: empty body, not an error.
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?trace=nosuch", nil))
	if rec.Body.Len() != 0 {
		t.Errorf("unknown trace ID returned %q, want empty", rec.Body.String())
	}
}

// TestTracesDroppedCollector: once the span ring evicts, the loss is
// visible on /metrics so an operator knows the JSONL export is partial.
func TestTracesDroppedCollector(t *testing.T) {
	o := New(simclock.NewSimulated(traceEpoch), DefaultPlatformLabel)

	scrape := func() string {
		var b strings.Builder
		if err := o.M().WriteText(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	if !strings.Contains(scrape(), "traces_dropped_total 0") {
		t.Fatalf("fresh observer scrape missing zero dropped counter:\n%s", scrape())
	}

	for i := 0; i < DefaultTraceCapacity+3; i++ {
		_, s := o.T().StartSpan(nil, "fill")
		s.End()
	}
	if !strings.Contains(scrape(), "traces_dropped_total 3") {
		t.Errorf("scrape after eviction missing traces_dropped_total 3:\n%s", scrape())
	}
}

// TestServersCarryHeaderTimeout: every daemon server comes from NewServer
// (the metrics listeners through ServeDebug), so each one stops waiting
// for a client's headers after ReadHeaderTimeout.
func TestServersCarryHeaderTimeout(t *testing.T) {
	o := New(simclock.NewSimulated(traceEpoch), DefaultPlatformLabel)
	debug := o.ServeDebug("127.0.0.1:0", NewLogger("test", io.Discard, simclock.NewSimulated(traceEpoch)))
	defer debug.Close()
	for name, srv := range map[string]*http.Server{
		"NewServer":  NewServer("127.0.0.1:0", http.NotFoundHandler()),
		"ServeDebug": debug,
	} {
		if srv.ReadHeaderTimeout != ReadHeaderTimeout || ReadHeaderTimeout <= 0 {
			t.Errorf("%s: ReadHeaderTimeout = %v, want %v", name, srv.ReadHeaderTimeout, ReadHeaderTimeout)
		}
		if srv.Addr != "127.0.0.1:0" || srv.Handler == nil {
			t.Errorf("%s: Addr %q, Handler %v", name, srv.Addr, srv.Handler)
		}
	}
}
