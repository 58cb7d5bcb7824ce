// Package metrics provides the small set of measurement primitives the
// experiment harness relies on: monotonic counters, time-bucketed series
// (daily for Figure 5, hourly for Figure 7), integer histograms (Figure 6),
// and cumulative-unique trackers (Figure 4).
//
// Everything is clock-agnostic: callers pass explicit timestamps, so the
// same code serves both simulated and wall-clock runs.
package metrics

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a concurrency-safe monotonic counter. It is a single atomic
// word — it sits on the per-like hot path now that registry counters in
// internal/obs wrap it.
type Counter struct {
	n atomic.Int64
}

// Add increments the counter by delta (which must be non-negative).
func (c *Counter) Add(delta int64) {
	if delta < 0 {
		panic("metrics: negative Counter.Add")
	}
	c.n.Add(delta)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.n.Load() }

// Series accumulates values into fixed-width time buckets anchored at an
// origin instant. Bucket 0 covers [origin, origin+width).
type Series struct {
	mu      sync.Mutex
	origin  time.Time
	width   time.Duration
	sums    map[int]float64
	counts  map[int]int64
	maxSeen int
}

// NewSeries returns a Series with the given origin and bucket width.
func NewSeries(origin time.Time, width time.Duration) *Series {
	if width <= 0 {
		panic("metrics: non-positive Series width")
	}
	return &Series{
		origin: origin,
		width:  width,
		sums:   make(map[int]float64),
		counts: make(map[int]int64),
	}
}

// Bucket returns the bucket index for t. Times before the origin map to
// negative indices.
func (s *Series) Bucket(t time.Time) int {
	d := t.Sub(s.origin)
	idx := int(d / s.width)
	if d < 0 && d%s.width != 0 {
		idx--
	}
	return idx
}

// Observe records value v at time t.
func (s *Series) Observe(t time.Time, v float64) {
	idx := s.Bucket(t)
	s.mu.Lock()
	s.sums[idx] += v
	s.counts[idx]++
	if idx > s.maxSeen {
		s.maxSeen = idx
	}
	s.mu.Unlock()
}

// Point is one bucket of a Series.
type Point struct {
	Bucket int
	Sum    float64
	Count  int64
	Mean   float64
}

// Points returns all observed buckets in index order. Empty buckets between
// observed ones are included with zero values so plots have a continuous
// x-axis.
func (s *Series) Points() []Point {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.sums) == 0 {
		return nil
	}
	min := s.maxSeen
	for idx := range s.sums {
		if idx < min {
			min = idx
		}
	}
	out := make([]Point, 0, s.maxSeen-min+1)
	for idx := min; idx <= s.maxSeen; idx++ {
		p := Point{Bucket: idx, Sum: s.sums[idx], Count: s.counts[idx]}
		if p.Count > 0 {
			p.Mean = p.Sum / float64(p.Count)
		}
		out = append(out, p)
	}
	return out
}

// IntHistogram counts occurrences of small integer values (e.g. "number of
// honeypot posts liked by an account", Figure 6).
type IntHistogram struct {
	mu     sync.Mutex
	counts map[int]int64
	total  int64
}

// NewIntHistogram returns an empty histogram.
func NewIntHistogram() *IntHistogram {
	return &IntHistogram{counts: make(map[int]int64)}
}

// Observe records one occurrence of v.
func (h *IntHistogram) Observe(v int) {
	h.mu.Lock()
	h.counts[v]++
	h.total++
	h.mu.Unlock()
}

// Bin is one histogram bin.
type Bin struct {
	Value    int
	Count    int64
	Fraction float64
}

// Bins returns the bins in ascending value order.
func (h *IntHistogram) Bins() []Bin {
	h.mu.Lock()
	defer h.mu.Unlock()
	vals := make([]int, 0, len(h.counts))
	for v := range h.counts {
		vals = append(vals, v)
	}
	sort.Ints(vals)
	out := make([]Bin, 0, len(vals))
	for _, v := range vals {
		c := h.counts[v]
		var f float64
		if h.total > 0 {
			f = float64(c) / float64(h.total)
		}
		out = append(out, Bin{Value: v, Count: c, Fraction: f})
	}
	return out
}

// UniqueTracker tracks, per step, the cumulative count of distinct keys
// seen so far alongside a cumulative event count. Figure 4 plots exactly
// this pair against the post index.
type UniqueTracker struct {
	mu        sync.Mutex
	seen      map[string]bool
	cumEvents int64
	steps     []UniquePoint
}

// UniquePoint is the state after one step.
type UniquePoint struct {
	Step             int
	CumulativeEvents int64
	CumulativeUnique int64
}

// NewUniqueTracker returns an empty tracker.
func NewUniqueTracker() *UniqueTracker {
	return &UniqueTracker{seen: make(map[string]bool)}
}

// Step records one batch of keys (e.g. the likers of one honeypot post) and
// appends a new point.
func (u *UniqueTracker) Step(keys []string) UniquePoint {
	u.mu.Lock()
	defer u.mu.Unlock()
	for _, k := range keys {
		u.seen[k] = true
	}
	u.cumEvents += int64(len(keys))
	p := UniquePoint{
		Step:             len(u.steps) + 1,
		CumulativeEvents: u.cumEvents,
		CumulativeUnique: int64(len(u.seen)),
	}
	u.steps = append(u.steps, p)
	return p
}

// Points returns all recorded steps.
func (u *UniqueTracker) Points() []UniquePoint {
	u.mu.Lock()
	defer u.mu.Unlock()
	out := make([]UniquePoint, len(u.steps))
	copy(out, u.steps)
	return out
}

// Unique returns the number of distinct keys observed so far.
func (u *UniqueTracker) Unique() int64 {
	u.mu.Lock()
	defer u.mu.Unlock()
	return int64(len(u.seen))
}
