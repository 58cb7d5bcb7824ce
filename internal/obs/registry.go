package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind is a metric family's type, matching the Prometheus TYPE keywords.
type Kind string

// Metric family kinds.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// Sample is one series snapshot emitted by a collector at scrape time.
type Sample struct {
	// Labels are the label values, matching the family's label names.
	Labels []string
	Value  float64
}

// Registry holds named metric families. Registering the same family twice
// (same name, kind, and label names) returns the existing one, so
// subsystems can bind instruments independently; conflicting
// re-registration panics, as in Prometheus client libraries. A nil
// *Registry is a valid no-op: it yields nil instruments whose methods do
// nothing.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// family is one named metric with a fixed label set.
type family struct {
	name    string
	help    string
	kind    Kind
	labels  []string
	buckets []float64 // histogram upper bounds, ascending, no +Inf

	mu     sync.Mutex
	series map[string]*series

	// collect, when set, replaces stored series at scrape time (used to
	// export externally-owned counters like shard contention).
	collect func() []Sample
}

// series is one label-value combination of a family.
type series struct {
	labelValues []string
	counter     atomic.Int64  // KindCounter
	gaugeBits   atomic.Uint64 // KindGauge (float64 bits)
	hist        *histogram    // KindHistogram
}

// add increments a counter series; counters only go up.
func (s *series) add(delta int64) {
	if delta < 0 {
		panic("obs: negative counter add")
	}
	s.counter.Add(delta)
}

// histogram is a fixed-bucket latency histogram. Buckets hold
// non-cumulative counts; exposition accumulates them, and _count is the
// cumulative +Inf value — keeping a separate total here would add one
// more contended atomic per observation on the hot path for a number the
// scrape can derive.
type histogram struct {
	counts  []atomic.Int64 // len(buckets)+1; last is +Inf overflow
	sumBits atomic.Uint64
}

func (h *histogram) observe(buckets []float64, v float64) {
	i := sort.SearchFloat64s(buckets, v)
	h.counts[i].Add(1)
	if v == 0 {
		// Adding zero to the sum is the identity; skipping the CAS loop
		// matters because under the simulated clock a synchronous call
		// observes exactly 0 — i.e. this is the milking hot path.
		return
	}
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

const labelSep = "\xff"

func (r *Registry) register(name, help string, kind Kind, labels []string, buckets []float64) *family {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || strings.Join(f.labels, labelSep) != strings.Join(labels, labelSep) {
			panic(fmt.Sprintf("obs: conflicting registration of %q", name))
		}
		return f
	}
	f := &family{
		name:    name,
		help:    help,
		kind:    kind,
		labels:  append([]string(nil), labels...),
		buckets: buckets,
		series:  make(map[string]*series),
	}
	r.families[name] = f
	return f
}

// get returns (creating if needed) the series for the label values.
func (f *family) get(labelValues []string) *series {
	if f == nil {
		return nil
	}
	if len(labelValues) != len(f.labels) {
		panic(fmt.Sprintf("obs: %q expects %d label values, got %d", f.name, len(f.labels), len(labelValues)))
	}
	// The key is joined into a stack buffer and looked up with
	// string(key), which the compiler does not copy: a hit allocates
	// nothing, so labelled Inc/Observe/Set calls on the denial paths are
	// free once their series exists.
	var buf [128]byte
	key := buf[:0]
	for i, v := range labelValues {
		if i > 0 {
			key = append(key, labelSep...)
		}
		key = append(key, v...)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.series[string(key)]
	if !ok {
		s = &series{labelValues: append([]string(nil), labelValues...)}
		if f.kind == KindHistogram {
			s.hist = &histogram{counts: make([]atomic.Int64, len(f.buckets)+1)}
		}
		f.series[string(key)] = s
	}
	return s
}

// CounterVec is a counter family. Bind label values once with With on hot
// paths; Add/Inc look the series up per call.
type CounterVec struct{ fam *family }

// Counter registers (or finds) a counter family.
func (r *Registry) Counter(name, help string, labelNames ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{fam: r.register(name, help, KindCounter, labelNames, nil)}
}

// With returns the counter bound to the label values.
func (v *CounterVec) With(labelValues ...string) *BoundCounter {
	if v == nil {
		return nil
	}
	return &BoundCounter{s: v.fam.get(labelValues)}
}

// Add increments the series for the label values by delta.
func (v *CounterVec) Add(delta int64, labelValues ...string) {
	if v == nil {
		return
	}
	v.fam.get(labelValues).add(delta)
}

// Inc increments the series for the label values by one.
func (v *CounterVec) Inc(labelValues ...string) { v.Add(1, labelValues...) }

// BoundCounter is a counter pre-bound to its label values. A nil
// *BoundCounter (an unobserved instrument) is a valid no-op.
type BoundCounter struct{ s *series }

// Add increments by delta, which must not be negative.
func (b *BoundCounter) Add(delta int64) {
	if b == nil {
		return
	}
	b.s.add(delta)
}

// Inc increments by one.
func (b *BoundCounter) Inc() { b.Add(1) }

// GaugeVec is a gauge family.
type GaugeVec struct{ fam *family }

// Gauge registers (or finds) a gauge family.
func (r *Registry) Gauge(name, help string, labelNames ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	return &GaugeVec{fam: r.register(name, help, KindGauge, labelNames, nil)}
}

// Set sets the series for the label values to v.
func (g *GaugeVec) Set(v float64, labelValues ...string) {
	if g == nil {
		return
	}
	g.fam.get(labelValues).gaugeBits.Store(math.Float64bits(v))
}

// DefBuckets are the default latency buckets in seconds, spanning
// in-process Graph API calls (tens of microseconds) through slow HTTP
// round trips.
var DefBuckets = []float64{
	1e-05, 2.5e-05, 5e-05, 0.0001, 0.00025, 0.0005,
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5,
}

// HistogramVec is a histogram family.
type HistogramVec struct{ fam *family }

// Histogram registers (or finds) a histogram family. buckets are ascending
// upper bounds in seconds; nil selects DefBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64, labelNames ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	if buckets == nil {
		buckets = DefBuckets
	}
	return &HistogramVec{fam: r.register(name, help, KindHistogram, labelNames, buckets)}
}

// With returns the histogram bound to the label values.
func (v *HistogramVec) With(labelValues ...string) *BoundHistogram {
	if v == nil {
		return nil
	}
	return &BoundHistogram{buckets: v.fam.buckets, h: v.fam.get(labelValues).hist}
}

// Observe records v into the series for the label values.
func (v *HistogramVec) Observe(val float64, labelValues ...string) {
	if v == nil {
		return
	}
	v.fam.get(labelValues).hist.observe(v.fam.buckets, val)
}

// BoundHistogram is a histogram pre-bound to its label values.
type BoundHistogram struct {
	buckets []float64
	h       *histogram
}

// Observe records one value.
func (b *BoundHistogram) Observe(v float64) {
	if b == nil {
		return
	}
	b.h.observe(b.buckets, v)
}

// Collector registers a family whose series are produced by fn at scrape
// time — the bridge for counters owned elsewhere (per-shard lock
// contention, live token counts) so they appear in /metrics without
// double bookkeeping on the owner's hot path.
func (r *Registry) Collector(name, help string, kind Kind, labelNames []string, fn func() []Sample) {
	if r == nil {
		return
	}
	f := r.register(name, help, kind, labelNames, nil)
	f.mu.Lock()
	f.collect = fn
	f.mu.Unlock()
}
