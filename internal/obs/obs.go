// Package obs is the reproduction's observability layer: context-propagated
// tracing, a metrics registry with Prometheus text exposition, and the HTTP
// surfaces (/metrics, /debug/traces, net/http/pprof) the daemons mount.
//
// The paper's contribution is *measurement* — attributing millions of likes
// to tokens, accounts, and countermeasure phases on a precise timeline
// (Figures 4–7). This package gives the reproduction the same property at
// runtime: one like request can be followed from OAuth token validation
// through Graph API dispatch, shard locking, collusion-network delivery,
// and the defense stack, and every hot-path subsystem exports counters the
// perf work (batched delivery, adaptive shards, retention sweeps) reports
// against.
//
// Three design rules hold everywhere:
//
//   - Clock injection. Spans are timed via the injected simclock.Clock, so
//     a simulated 75-day countermeasure campaign and a wall-clock daemon
//     both produce coherent traces.
//   - Bounded cardinality and memory. Label sets are fixed per family,
//     HTTP endpoints are normalized before labelling, and the trace buffer
//     is a fixed-capacity ring — instrumentation never grows without bound.
//   - No raw credentials. Span attributes and event fields are taint sinks
//     for the tokenflow analyzer: bearer tokens must pass through
//     internal/redact before entering a trace.
//
// Everything is stdlib-only and nil-safe: a nil *Observer (or nil Tracer /
// Registry / span) turns every call into a no-op, so instrumented code
// never branches on whether observability is wired up.
package obs

import (
	"repro/internal/simclock"
)

// Observer bundles the pillars a subsystem needs: a Tracer for spans, a
// Registry for metrics, and an AllocMeter for per-hot-path allocation
// accounting. Subsystems receive one via SetObserver-style wiring from the
// composition root (internal/platform).
type Observer struct {
	Tracer  *Tracer
	Metrics *Registry
	Allocs  *AllocMeter
}

// New returns an Observer whose tracer reads the given clock and keeps the
// default number of finished spans. platform labels the allocation
// meter's families; the composition root passes its provider's name so
// scale-mode dashboards split allocs-per-op by platform.
func New(clock simclock.Clock, platform string) *Observer {
	o := &Observer{
		Tracer:  NewTracer(clock, DefaultTraceCapacity),
		Metrics: NewRegistry(),
	}
	o.Allocs = NewAllocMeter(o.Metrics, platform)
	o.Metrics.Collector("traces_dropped_total",
		"Finished spans evicted from the trace ring before export.",
		KindCounter, nil, func() []Sample {
			return []Sample{{Value: float64(o.Tracer.Dropped())}}
		})
	return o
}

// T returns the observer's tracer; nil observers have a nil tracer, which
// is itself a valid no-op tracer.
func (o *Observer) T() *Tracer {
	if o == nil {
		return nil
	}
	return o.Tracer
}

// M returns the observer's registry; nil observers have a nil registry,
// which registers nothing and yields no-op instruments.
func (o *Observer) M() *Registry {
	if o == nil {
		return nil
	}
	return o.Metrics
}

// A returns the observer's allocation meter; nil observers have a nil
// meter, which measures nothing at zero cost.
func (o *Observer) A() *AllocMeter {
	if o == nil {
		return nil
	}
	return o.Allocs
}
