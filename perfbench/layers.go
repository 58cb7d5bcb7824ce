package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/honeypot"
	"repro/internal/obs"
	"repro/internal/socialgraph"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEndMetrics are printed by every untraced run (--trace 0).
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"like_attempts_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"allocs_per_op", "count"},
	{"bytes_per_op", "B"},
	{"heap_peak_mib", "MiB"},
}

// perLayerMetrics are printed by every traced run (--trace 1). A layer a
// workload does not exercise reads 0 there: that is the "should stay
// flat" side of README.md's layer table.
var perLayerMetrics = func() []metricDef {
	var out []metricDef
	add := func(unit string, names ...string) {
		for _, n := range names {
			out = append(out, metricDef{n, unit})
		}
	}
	boundary := func(prefix string, stats ...string) {
		for _, s := range stats {
			unit := map[string]string{"count": "count", "busy_ms": "ms", "self_ms": "ms",
				"max_ms": "ms", "p50_us": "us", "p99_us": "us", "max_us": "us"}[s]
			add(unit, prefix+"."+s)
		}
	}
	boundary("core.milk_round", "count", "busy_ms", "p99_us", "self_ms")
	add("B", "core.milk_round.first_bytes_per_op")
	boundary("collusion.request_likes", "count", "busy_ms", "p50_us", "p99_us")
	add("count", "collusion.likes_attempted", "collusion.likes_delivered", "collusion.failures")
	add("fraction", "collusion.delivery_yield")
	boundary("defense.invalidation_sweep", "count", "busy_ms")
	boundary("defense.clustering_sweep", "count", "busy_ms", "max_us")
	for _, p := range deniedPolicies {
		add("count", "defense.denied."+p)
	}
	add("fraction", "defense.denied_frac")
	boundary("oauthsim.authorize", "count", "busy_ms")
	add("count", "oauthsim.live_tokens")
	add("ms", "workload.join.busy_ms")
	for _, c := range httpClasses {
		boundary("graphapi.http."+c, "count", "busy_ms", "p50_us", "p99_us")
	}
	for _, c := range clientOps {
		boundary("platform.http_client."+c, "p50_us", "p99_us")
	}
	add("us", "platform.wire_overhead_us")
	boundary("socialgraph.retention_sweep", "count", "busy_ms", "max_ms")
	add("count", "socialgraph.sweep_stall_ops", "socialgraph.lock_acq_per_op", "socialgraph.retained_likes")
	add("fraction", "socialgraph.contended_frac", "socialgraph.dup_like_frac")
	add("us", "workload.queue_wait_p99_us", "workload.lag_p99_us")
	add("fraction", "workload.error_rate")
	for _, op := range meteredOps {
		add("count", "obs.allocs_per_op."+op)
	}
	add("count", "runtime.gc_cycles")
	add("ms", "runtime.gc_pause_total_ms")
	add("fraction", "trace.overhead_frac")
	add("ms", "trace.residual_ms")
	return out
}()

// deniedPolicies are the defense chain policies whose denials are
// reported (Chain.Denials keys).
var deniedPolicies = []string{"token-rate-limit", "ip-rate-limit", "as-block"}

// httpClasses are the server-side request classes of the wire workload.
var httpClasses = []string{"like", "batch", "likes_read", "error"}

// clientOps are the platform.HTTPClient calls the wire workload makes.
var clientOps = []string{"like", "like_batch", "likes_of"}

// meteredOps are the program's own allocs_per_op{op} gauges.
var meteredOps = []string{"milk.round", "graphapi.like_batch", "shard.apply", "defense.chain"}

// table holds one run's values for a fixed metric list.
type table struct {
	defs []metricDef
	v    map[string]float64
	// notes are printed beside values in the human-readable table.
	notes map[string]string
}

func newTable(defs []metricDef) *table {
	t := &table{defs: defs, v: make(map[string]float64, len(defs)), notes: map[string]string{}}
	for _, d := range defs {
		t.v[d.name] = 0
	}
	return t
}

// set records a value; an undeclared name is a bug in the benchmark.
func (t *table) set(name string, v float64) {
	if _, ok := t.v[name]; !ok {
		panic("perfbench: undeclared metric " + name)
	}
	t.v[name] = v
}

// boundary accumulates the durations of calls across one layer boundary.
// It is safe for concurrent use; only traced runs create them.
type boundary struct {
	mu sync.Mutex
	d  []time.Duration
}

func (b *boundary) observe(d time.Duration) {
	b.mu.Lock()
	b.d = append(b.d, d)
	b.mu.Unlock()
}

// reset drops the samples observed so far.
func (b *boundary) reset() {
	b.mu.Lock()
	b.d = b.d[:0]
	b.mu.Unlock()
}

func (b *boundary) samples() []time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]time.Duration(nil), b.d...)
}

// report writes the boundary's stats under prefix. Percentiles with too
// few samples for their tail read 0 and get a note.
func (b *boundary) report(t *table, prefix string, stats ...string) {
	d := b.samples()
	for _, s := range stats {
		name := prefix + "." + s
		switch s {
		case "count":
			t.set(name, float64(len(d)))
		case "busy_ms":
			t.set(name, ms(sum(d)))
		case "p50_us", "p99_us":
			q := map[string]float64{"p50_us": 0.50, "p99_us": 0.99}[s]
			v, err := percentile(sortedCopy(d), q)
			if err != nil && len(d) > 0 {
				t.notes[name] = fmt.Sprintf("(%d samples: too few for this tail)", len(d))
			}
			t.set(name, us(v))
		case "max_us", "max_ms":
			var m time.Duration
			for _, x := range d {
				if x > m {
					m = x
				}
			}
			if s == "max_us" {
				t.set(name, us(m))
			} else {
				t.set(name, ms(m))
			}
		default:
			panic("perfbench: unknown boundary stat " + s)
		}
	}
}

// tracedSite is the traced run's decorator around a collusion network's
// member-facing surface: it times RequestLikes (the collusion boundary,
// which in-process includes the platform it delivers through) and
// forwards every other honeypot.Site method untouched.
type tracedSite struct {
	next         honeypot.Site
	requestLikes *boundary
}

var _ honeypot.Site = (*tracedSite)(nil)

func (s *tracedSite) Name() string { return s.next.Name() }
func (s *tracedSite) SubmitToken(accountID, token string) error {
	return s.next.SubmitToken(accountID, token)
}
func (s *tracedSite) Challenge(accountID string) string { return s.next.Challenge(accountID) }
func (s *tracedSite) RequestLikes(accountID, postID, captchaAnswer string) (int, error) {
	t0 := time.Now()
	n, err := s.next.RequestLikes(accountID, postID, captchaAnswer)
	s.requestLikes.observe(time.Since(t0))
	return n, err
}
func (s *tracedSite) RequestComments(accountID, postID, captchaAnswer string) (int, error) {
	return s.next.RequestComments(accountID, postID, captchaAnswer)
}
func (s *tracedSite) CompleteAdWall(accountID string) error { return s.next.CompleteAdWall(accountID) }

// tracedHandler is the traced run's decorator around the platform's HTTP
// surface: it times each request by class (like, batch, likes_read, or
// error for any 4xx/5xx answer).
type tracedHandler struct {
	next    http.Handler
	classes map[string]*boundary
}

func newTracedHandler(next http.Handler) *tracedHandler {
	h := &tracedHandler{next: next, classes: map[string]*boundary{}}
	for _, c := range httpClasses {
		h.classes[c] = &boundary{}
	}
	return h
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rec := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	t0 := time.Now()
	h.next.ServeHTTP(rec, r)
	d := time.Since(t0)
	class := ""
	switch {
	case rec.status >= 400:
		class = "error"
	case r.URL.Path == "/batch":
		class = "batch"
	case strings.HasSuffix(r.URL.Path, "/likes") && r.Method == http.MethodPost:
		class = "like"
	case strings.HasSuffix(r.URL.Path, "/likes") && r.Method == http.MethodGet:
		class = "likes_read"
	}
	if b := h.classes[class]; b != nil {
		b.observe(d)
	}
}

// statusWriter captures the response status. It forwards the optional
// interfaces net/http's own writer implements, and Unwrap lets
// http.ResponseController reach the original.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *statusWriter) Hijack() (net.Conn, *bufio.ReadWriter, error) {
	if h, ok := w.ResponseWriter.(http.Hijacker); ok {
		return h.Hijack()
	}
	return nil, nil, http.ErrNotSupported
}

func (w *statusWriter) ReadFrom(r io.Reader) (int64, error) {
	if rf, ok := w.ResponseWriter.(io.ReaderFrom); ok {
		return rf.ReadFrom(r)
	}
	return io.Copy(struct{ io.Writer }{w.ResponseWriter}, r)
}

// scrape reads a family's samples from the observer's /metrics
// exposition: label value of key → value, summed over other labels.
func scrape(o *obs.Observer, family, key string) map[string]float64 {
	var buf bytes.Buffer
	if err := o.M().WriteText(&buf); err != nil {
		return nil
	}
	out := map[string]float64{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if !strings.HasPrefix(line, family+"{") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		label := ""
		if i := strings.Index(line, key+`="`); i >= 0 {
			rest := line[i+len(key)+2:]
			label = rest[:strings.IndexByte(rest, '"')]
		}
		out[label] += v
	}
	return out
}

// reportAllocGauges copies the program's sampled allocs_per_op{op} gauges.
func reportAllocGauges(t *table, o *obs.Observer) {
	g := scrape(o, "allocs_per_op", "op")
	for _, op := range meteredOps {
		t.set("obs.allocs_per_op."+op, g[op])
	}
}

func reportRuntime(t *table, w windowStats) {
	t.set("runtime.gc_cycles", w.gcCycles)
	t.set("runtime.gc_pause_total_ms", ms(w.gcPauseTotal))
}

// reportCollusion sets the collusion delivery counters.
func reportCollusion(t *table, attempted, delivered, failures int64) {
	t.set("collusion.likes_attempted", float64(attempted))
	t.set("collusion.likes_delivered", float64(delivered))
	t.set("collusion.failures", float64(failures))
	if attempted > 0 {
		t.set("collusion.delivery_yield", float64(delivered)/float64(attempted))
	}
}

// reportStore sets the store's lock and retention readings for a window
// of ops unit operations.
func reportStore(t *table, g *socialgraph.Store, acquired, contended, ops int64) {
	if ops > 0 {
		t.set("socialgraph.lock_acq_per_op", float64(acquired)/float64(ops))
	}
	if acquired > 0 {
		t.set("socialgraph.contended_frac", float64(contended)/float64(acquired))
	}
	t.set("socialgraph.retained_likes", float64(g.RetainedEdges().Likes))
}
