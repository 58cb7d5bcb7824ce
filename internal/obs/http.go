package obs

import (
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"
)

// Trace-propagation headers carried by the HTTP transports. A client that
// holds an open span sets both; the serving middleware joins the trace via
// StartSpanRemote so one like stays on one trace ID across processes.
const (
	HeaderTraceID    = "X-Trace-Id"
	HeaderParentSpan = "X-Parent-Span"
)

// statusRecorder captures the status code written by the wrapped handler.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// Middleware wraps next with request telemetry: a span named
// "<prefix>.request" joining any propagated trace, plus
// <prefix>_http_requests_total{endpoint,status} and
// <prefix>_http_request_seconds{endpoint}. endpointFn normalizes the URL
// path to a bounded label set (object IDs collapse to placeholders); nil
// uses the raw path. A nil Observer returns next unchanged.
func (o *Observer) Middleware(next http.Handler, prefix string, endpointFn func(path string) string) http.Handler {
	if o == nil {
		return next
	}
	if endpointFn == nil {
		endpointFn = func(path string) string { return path }
	}
	requests := o.M().Counter(prefix+"_http_requests_total",
		"HTTP requests served, by normalized endpoint and status code.",
		"endpoint", "status")
	latency := o.M().Histogram(prefix+"_http_request_seconds",
		"HTTP request latency in seconds, by normalized endpoint.",
		nil, "endpoint")
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, span := o.T().StartSpanRemote(r.Context(), prefix+".request",
			r.Header.Get(HeaderTraceID), r.Header.Get(HeaderParentSpan))
		endpoint := endpointFn(r.URL.Path)
		span.SetAttr("method", r.Method)
		span.SetAttr("endpoint", endpoint)

		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		start := o.T().now()
		next.ServeHTTP(rec, r.WithContext(ctx))
		elapsed := o.T().now().Sub(start)

		status := strconv.Itoa(rec.status)
		span.SetAttr("status", status)
		span.End()
		requests.Inc(endpoint, status)
		latency.Observe(elapsed.Seconds(), endpoint)
	})
}

// MetricsHandler serves the registry in Prometheus text exposition format.
func (o *Observer) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = o.M().WriteText(w)
	})
}

// TracesHandler serves the retained spans as JSONL, oldest first. A
// ?trace=<id> query restricts the dump to one trace tree — with a 4096
// span ring, pulling a single request out of the full dump got unwieldy.
func (o *Observer) TracesHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/jsonl; charset=utf-8")
		_ = o.T().WriteJSONLTrace(w, r.URL.Query().Get("trace"))
	})
}

// RegisterDebug mounts the observability surfaces on mux: /metrics,
// /debug/traces, and the net/http/pprof profiling endpoints.
func (o *Observer) RegisterDebug(mux *http.ServeMux) {
	mux.Handle("/metrics", o.MetricsHandler())
	mux.Handle("/debug/traces", o.TracesHandler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// ReadHeaderTimeout bounds how long every daemon's HTTP server waits for
// a request's headers. Without it, a client that never finishes its
// headers holds a connection and a goroutine indefinitely.
const ReadHeaderTimeout = 10 * time.Second

// NewServer returns a server for handler on addr that carries
// ReadHeaderTimeout; the daemons build every HTTP server through it.
func NewServer(addr string, handler http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: handler, ReadHeaderTimeout: ReadHeaderTimeout}
}

// ServeDebug serves the observability surfaces (RegisterDebug) on addr
// in the background, on their own listener so they can be scraped
// without touching a daemon's main one, and returns the server so its
// owner can shut it down. A listen failure is logged.
func (o *Observer) ServeDebug(addr string, logger *Logger) *http.Server {
	mux := http.NewServeMux()
	o.RegisterDebug(mux)
	srv := NewServer(addr, mux)
	go func() {
		if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			logger.Errorf("metrics server: %v", err)
		}
	}()
	return srv
}
