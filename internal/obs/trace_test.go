package obs

import (
	"bufio"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/simclock"
)

var traceEpoch = time.Date(2017, 3, 1, 0, 0, 0, 0, time.UTC)

func newTestTracer(capacity int) (*Tracer, *simclock.Simulated) {
	clock := simclock.NewSimulated(traceEpoch)
	return NewTracer(clock, capacity), clock
}

func TestSpanTree(t *testing.T) {
	tr, clock := newTestTracer(0)
	ctx, root := tr.StartSpan(context.Background(), "graphapi.like")
	clock.Advance(time.Millisecond)
	_, child := tr.StartSpan(ctx, "oauth.validate")
	if child.TraceID != root.TraceID {
		t.Errorf("child trace %q != root trace %q", child.TraceID, root.TraceID)
	}
	if child.ParentID != root.SpanID {
		t.Errorf("child parent %q != root span %q", child.ParentID, root.SpanID)
	}
	if root.ParentID != "" {
		t.Errorf("root has parent %q", root.ParentID)
	}
	child.End()
	clock.Advance(time.Millisecond)
	root.SetAttr("object", "post1")
	root.End()

	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d finished spans, want 2", len(spans))
	}
	// Oldest first: the child ended before the root.
	if spans[0].Name != "oauth.validate" || spans[1].Name != "graphapi.like" {
		t.Errorf("order = %q, %q", spans[0].Name, spans[1].Name)
	}
	if got := spans[1].DurUS; got != 2000 {
		t.Errorf("root duration = %dus, want 2000", got)
	}
	if len(spans[1].Attrs) != 1 || spans[1].Attrs[0].Key != "object" {
		t.Errorf("root attrs = %+v", spans[1].Attrs)
	}
}

func TestSpanIDsDeterministic(t *testing.T) {
	tr, _ := newTestTracer(0)
	_, a := tr.StartSpan(nil, "a")
	_, b := tr.StartSpan(nil, "b")
	if a.TraceID != "t00000001" || b.TraceID != "t00000002" {
		t.Errorf("trace ids = %q, %q", a.TraceID, b.TraceID)
	}
	if a.SpanID != "s00000001" || b.SpanID != "s00000002" {
		t.Errorf("span ids = %q, %q", a.SpanID, b.SpanID)
	}
}

func TestStartSpanRemote(t *testing.T) {
	tr, _ := newTestTracer(0)
	_, s := tr.StartSpanRemote(nil, "graphapi.request", "t12345678", "sabcdef01")
	if s.TraceID != "t12345678" || s.ParentID != "sabcdef01" {
		t.Errorf("remote span = %+v", s)
	}
	// Empty trace ID falls back to a fresh trace.
	_, fresh := tr.StartSpanRemote(nil, "graphapi.request", "", "")
	if fresh.TraceID == "" {
		t.Error("fallback span has no trace ID")
	}
}

func TestUnsampledContext(t *testing.T) {
	tr, _ := newTestTracer(0)

	// Beneath an unsampled context no spans are created, for roots or
	// children, and the context round-trips unchanged.
	ctx := UnsampledContext(nil)
	got, s := tr.StartSpan(ctx, "graphapi.like")
	if s != nil {
		t.Errorf("unsampled StartSpan returned span %+v", s)
	}
	if got != ctx {
		t.Error("unsampled StartSpan changed the context")
	}
	if SpanFromContext(ctx) != nil {
		t.Error("SpanFromContext sees the unsampled sentinel")
	}

	// Suppression also applies beneath a live parent span.
	liveCtx, parent := tr.StartSpan(nil, "collusion.deliver")
	_, child := tr.StartSpan(UnsampledContext(liveCtx), "graphapi.like")
	if child != nil {
		t.Error("unsampled child beneath live parent was created")
	}
	parent.End()
	if n := len(tr.Spans()); n != 1 {
		t.Errorf("ring holds %d spans, want 1", n)
	}

	// Nil-safe: all span methods on the suppressed (nil) span are no-ops.
	child.SetAttr("k", "v")
	child.Event("e")
	child.End()
}

func TestRingEviction(t *testing.T) {
	tr, _ := newTestTracer(2)
	for _, name := range []string{"a", "b", "c"} {
		_, s := tr.StartSpan(nil, name)
		s.End()
	}
	if got := tr.Dropped(); got != 1 {
		t.Errorf("dropped = %d, want 1", got)
	}
	spans := tr.Spans()
	if len(spans) != 2 || spans[0].Name != "b" || spans[1].Name != "c" {
		t.Errorf("retained = %+v", spans)
	}
}

func TestEndIdempotent(t *testing.T) {
	tr, _ := newTestTracer(0)
	_, s := tr.StartSpan(nil, "a")
	s.End()
	s.End()
	if n := len(tr.Spans()); n != 1 {
		t.Errorf("double End recorded %d spans", n)
	}
}

func TestWriteJSONL(t *testing.T) {
	tr, clock := newTestTracer(0)
	ctx, root := tr.StartSpan(nil, "milk.round")
	root.SetAttr("network", "hublaa")
	clock.Advance(time.Second)
	_, child := tr.StartSpan(ctx, "graphapi.like")
	child.Event("deny", "reason", "rate-limit")
	child.End()
	root.End()

	var b strings.Builder
	if err := tr.WriteJSONLTrace(&b, ""); err != nil {
		t.Fatal(err)
	}
	var lines []SpanData
	sc := bufio.NewScanner(strings.NewReader(b.String()))
	for sc.Scan() {
		var d SpanData
		if err := json.Unmarshal(sc.Bytes(), &d); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		lines = append(lines, d)
	}
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	if lines[0].Trace != lines[1].Trace {
		t.Errorf("trace ids differ: %q vs %q", lines[0].Trace, lines[1].Trace)
	}
	if lines[0].Name != "graphapi.like" || lines[0].Parent == "" {
		t.Errorf("child line = %+v", lines[0])
	}
	if len(lines[0].Events) != 1 || lines[0].Events[0].Name != "deny" {
		t.Errorf("child events = %+v", lines[0].Events)
	}
}

// TestNilTracer exercises the whole span API on a nil tracer and nil
// spans: instrumented code must run unchanged when observability is off.
func TestNilTracer(t *testing.T) {
	var tr *Tracer
	ctx, s := tr.StartSpan(context.Background(), "a")
	if s != nil || ctx == nil {
		t.Errorf("nil tracer StartSpan = (%v, %v)", ctx, s)
	}
	_, s = tr.StartSpanRemote(nil, "a", "t1", "s1")
	if s != nil {
		t.Error("nil tracer StartSpanRemote returned a span")
	}
	s.SetAttr("k", "v")
	s.Event("e")
	s.End()
	s.EndAt(time.Time{})
	if tr.Spans() != nil || tr.Dropped() != 0 {
		t.Error("nil tracer retains spans")
	}
	if err := tr.WriteJSONLTrace(&strings.Builder{}, ""); err != nil {
		t.Errorf("nil WriteJSONLTrace: %v", err)
	}
}
