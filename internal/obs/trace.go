package obs

import (
	"context"
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/simclock"
)

// DefaultTraceCapacity is the ring-buffer size for finished spans: large
// enough to hold every span of a full milking round at test scale, small
// enough that a long-running daemon stays in bounded memory.
const DefaultTraceCapacity = 4096

// Tracer mints spans, times them against an injected clock, and keeps the
// most recent finished spans in a fixed-capacity ring for export. All
// methods are safe for concurrent use; a nil *Tracer is a valid no-op.
type Tracer struct {
	clock simclock.Clock

	// ids are sequential, not random: simulated runs are deterministic
	// end to end, and traces should be too.
	traceSeq atomic.Uint64
	spanSeq  atomic.Uint64

	mu      sync.Mutex
	ring    []*Span
	next    int
	filled  bool
	dropped int64
}

// NewTracer returns a tracer reading the given clock, retaining up to
// capacity finished spans (<= 0 selects DefaultTraceCapacity).
func NewTracer(clock simclock.Clock, capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{clock: clock, ring: make([]*Span, capacity)}
}

// now reads the tracer's clock, tolerating nil tracers and clocks.
func (t *Tracer) now() time.Time {
	if t == nil || t.clock == nil {
		return time.Time{}
	}
	return t.clock.Now()
}

// Attr is one span attribute. Values are plain strings; credentials must
// be redacted (internal/redact) before they get here — the tokenflow
// analyzer enforces this at the SetAttr/Event call sites.
type Attr struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// SpanEvent is a timestamped point event inside a span (a like failure, a
// policy denial, a token drop).
type SpanEvent struct {
	Name  string    `json:"name"`
	At    time.Time `json:"at"`
	Attrs []Attr    `json:"attrs,omitempty"`
}

// Span is one timed operation. Spans form trees: children inherit the
// trace ID and record the parent span ID. A nil *Span is a valid no-op,
// so call sites never branch on whether tracing is enabled.
type Span struct {
	tracer *Tracer

	Name     string
	TraceID  string
	SpanID   string
	ParentID string
	Start    time.Time

	mu     sync.Mutex
	attrs  []Attr
	events []SpanEvent
	end    time.Time
	ended  bool
}

type ctxKey struct{}

// unsampled is a sentinel marking a context subtree where span creation
// is suppressed. Delivery bursts fire hundreds of likes per round;
// tracing every one costs more than the rest of the request combined, so
// hot loops trace a representative sample fully and tag the remainder
// with this sentinel. Metrics are unaffected — sampling bounds trace
// volume and per-call cost, never counter accuracy.
var unsampled = &Span{Name: "unsampled"}

var unsampledBackground = context.WithValue(context.Background(), ctxKey{}, unsampled)

// UnsampledContext returns a context beneath which StartSpan/StartSpanAt
// return a nil span without allocating. Use it for the non-sampled
// iterations of a hot loop whose first iteration is traced normally. A
// context that is already unsampled comes back unchanged.
func UnsampledContext(ctx context.Context) context.Context {
	if ctx == nil || ctx == context.Background() {
		return unsampledBackground
	}
	if s, _ := ctx.Value(ctxKey{}).(*Span); s == unsampled {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, unsampled)
}

// ContextWithSpan returns ctx carrying the span.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	return context.WithValue(ctx, ctxKey{}, s)
}

// SpanFromContext returns the span carried by ctx, or nil. The
// unsampled sentinel reads as nil: callers must not attach attributes
// or propagate trace headers for suppressed subtrees.
func SpanFromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(ctxKey{}).(*Span)
	if s == unsampled {
		return nil
	}
	return s
}

// Sampled reports whether ctx is outside an UnsampledContext subtree — the
// gate shared by span creation and the AllocMeter, so per-burst sampling
// decisions made once in a delivery loop govern every measurement kind. A
// nil context counts as sampled, matching StartSpan.
func Sampled(ctx context.Context) bool {
	if ctx == nil {
		return true
	}
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s != unsampled
}

// seqID renders a sequence number as prefix + 8 lowercase hex digits.
// Hand-rolled because fmt.Sprintf is measurable on the per-like hot path.
func seqID(prefix byte, n uint64) string {
	const digits = "0123456789abcdef"
	var b [9]byte
	b[0] = prefix
	for i := 8; i >= 1; i-- {
		b[i] = digits[n&0xf]
		n >>= 4
	}
	return string(b[:])
}

// StartSpan opens a span named name. If ctx carries a span the new span
// joins its trace as a child; otherwise a fresh trace begins. The returned
// context carries the new span for further nesting. On a nil tracer both
// returns are no-ops (ctx unchanged, nil span).
func (t *Tracer) StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	return t.StartSpanAt(ctx, name, t.now())
}

// StartSpanAt is StartSpan with an explicit start time, letting hot paths
// that already read the clock avoid a second (possibly lock-guarded,
// under a simulated clock) read per child span.
func (t *Tracer) StartSpanAt(ctx context.Context, name string, at time.Time) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	parent, _ := ctx.Value(ctxKey{}).(*Span)
	if parent == unsampled {
		return ctx, nil
	}
	s := &Span{tracer: t, Name: name, Start: at}
	if parent != nil {
		s.TraceID = parent.TraceID
		s.ParentID = parent.SpanID
	} else {
		s.TraceID = seqID('t', t.traceSeq.Add(1))
	}
	s.SpanID = seqID('s', t.spanSeq.Add(1))
	return ContextWithSpan(ctx, s), s
}

// StartSpanRemote opens a span that continues a trace propagated from
// another process (the X-Trace-Id / X-Parent-Span headers the HTTP
// transports carry). Empty traceID falls back to StartSpan semantics.
func (t *Tracer) StartSpanRemote(ctx context.Context, name, traceID, parentID string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	if traceID == "" {
		return t.StartSpan(ctx, name)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	s := &Span{
		tracer:   t,
		Name:     name,
		Start:    t.now(),
		TraceID:  traceID,
		ParentID: parentID,
		SpanID:   seqID('s', t.spanSeq.Add(1)),
	}
	return ContextWithSpan(ctx, s), s
}

// SetAttr records a key/value attribute on the span. Credentials must be
// redacted first; the tokenflow analyzer treats this as a sink.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// SetAttr2 records two attributes with one lock acquisition and at most
// one slice growth — for hot paths whose spans carry a fixed attr pair
// (appending them separately would grow the attrs slice twice). The same
// redaction contract as SetAttr applies.
func (s *Span) SetAttr2(k1, v1, k2, v2 string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: k1, Value: v1}, Attr{Key: k2, Value: v2})
	s.mu.Unlock()
}

// Event records a point event, with optional alternating key/value attrs.
// Credentials must be redacted first; the tokenflow analyzer treats this
// as a sink.
func (s *Span) Event(name string, kv ...string) {
	if s == nil {
		return
	}
	ev := SpanEvent{Name: name, At: s.tracer.now()}
	for i := 0; i+1 < len(kv); i += 2 {
		ev.Attrs = append(ev.Attrs, Attr{Key: kv[i], Value: kv[i+1]})
	}
	s.mu.Lock()
	s.events = append(s.events, ev)
	s.mu.Unlock()
}

// End closes the span and hands it to the tracer's ring. Ending twice is
// a no-op, so `defer span.End()` composes with early explicit ends.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.EndAt(s.tracer.now())
}

// EndAt is End with an explicit end time (same rationale as StartSpanAt).
func (s *Span) EndAt(at time.Time) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.end = at
	s.mu.Unlock()
	s.tracer.record(s)
}

// record pushes a finished span into the ring, overwriting the oldest
// entry when full.
func (t *Tracer) record(s *Span) {
	t.mu.Lock()
	if t.ring[t.next] != nil {
		t.dropped++
	}
	t.ring[t.next] = s
	t.next++
	if t.next == len(t.ring) {
		t.next = 0
		t.filled = true
	}
	t.mu.Unlock()
}

// Dropped reports how many finished spans have been evicted from the ring.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// SpanData is an exported snapshot of one finished span.
type SpanData struct {
	Trace  string      `json:"trace"`
	Span   string      `json:"span"`
	Parent string      `json:"parent,omitempty"`
	Name   string      `json:"name"`
	Start  time.Time   `json:"start"`
	End    time.Time   `json:"end"`
	DurUS  int64       `json:"dur_us"`
	Attrs  []Attr      `json:"attrs,omitempty"`
	Events []SpanEvent `json:"events,omitempty"`
}

// snapshot copies the span's recorded state.
func (s *Span) snapshot() SpanData {
	s.mu.Lock()
	defer s.mu.Unlock()
	d := SpanData{
		Trace:  s.TraceID,
		Span:   s.SpanID,
		Parent: s.ParentID,
		Name:   s.Name,
		Start:  s.Start,
		End:    s.end,
		DurUS:  s.end.Sub(s.Start).Microseconds(),
	}
	d.Attrs = append(d.Attrs, s.attrs...)
	d.Events = append(d.Events, s.events...)
	return d
}

// Spans returns the finished spans currently retained, oldest first.
func (t *Tracer) Spans() []SpanData {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	var ordered []*Span
	if t.filled {
		ordered = append(ordered, t.ring[t.next:]...)
		ordered = append(ordered, t.ring[:t.next]...)
	} else {
		ordered = append(ordered, t.ring[:t.next]...)
	}
	t.mu.Unlock()
	out := make([]SpanData, 0, len(ordered))
	for _, s := range ordered {
		out = append(out, s.snapshot())
	}
	return out
}

// WriteJSONLTrace exports the retained spans of one trace ID, or of every
// trace for an empty ID, as one JSON object per line, oldest first — the
// format /debug/traces (and its ?trace=<id> filter) serves and the
// timeline reconstruction tooling consumes.
func (t *Tracer) WriteJSONLTrace(w io.Writer, traceID string) error {
	if t == nil {
		return nil
	}
	enc := json.NewEncoder(w)
	for _, d := range t.Spans() {
		if traceID != "" && d.Trace != traceID {
			continue
		}
		if err := enc.Encode(d); err != nil {
			return err
		}
	}
	return nil
}
