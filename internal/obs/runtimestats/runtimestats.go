// Package runtimestats exposes the Go runtime's memory, GC, and scheduler
// state as obs metric families and point-in-time snapshots.
//
// The paper's countermeasures were tuned against measured traffic volumes
// (Table 4, Fig. 5); the reproduction's scale mode likewise needs the
// resource side measured before the hot paths can be made allocation-free
// (top ROADMAP item). Two read paths with very different costs are kept
// deliberately separate:
//
//   - Scrape-time collectors read individual runtime/metrics counters.
//     These do not stop the world and cost microseconds, so /metrics can
//     be polled aggressively with no effect on the load under test.
//   - Sampler.Sample calls runtime.ReadMemStats (a brief stop-the-world)
//     plus a runtime/metrics histogram read. It runs at human frequency —
//     per retention sweep in `repro scale`, every few seconds in the
//     daemons — and feeds the GC-pause histogram and rate gauges that
//     need deltas between consecutive readings.
//
// Sample reads the injected clock (simclock.Clock), so alloc-rate windows
// are coherent with however the surrounding system tells time. Start's
// ticker always runs on the wall clock (simclock.Real): a simulated clock
// has no timers, and every caller samples real runtime activity.
package runtimestats

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/simclock"
)

// Runtime metric names read by the scrape-time collectors.
const (
	mGoroutines   = "/sched/goroutines:goroutines"
	mHeapBytes    = "/memory/classes/heap/objects:bytes"
	mHeapObjects  = "/gc/heap/objects:objects"
	mSysBytes     = "/memory/classes/total:bytes"
	mGCCycles     = "/gc/cycles/total:gc-cycles"
	mMallocs      = "/gc/heap/allocs:objects"
	mAllocBytes   = "/gc/heap/allocs:bytes"
	mMutexWait    = "/sync/mutex/wait/total:seconds"
	mSchedLatency = "/sched/latencies:seconds"
)

// gcPauseBuckets bound the GC-pause histogram: sub-10µs pauses (healthy
// concurrent GC) through the >10ms stalls that would blow the like-path
// p99 SLO.
var gcPauseBuckets = []float64{
	1e-06, 2.5e-06, 5e-06, 1e-05, 2.5e-05, 5e-05,
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.05, 0.1,
}

// Snapshot is one point-in-time reading of the runtime, as embedded in
// the per-sweep scale report. Rates cover the window since the previous
// Sample on the same Sampler (zero on the first).
type Snapshot struct {
	At               time.Time     `json:"at"`
	Goroutines       int           `json:"goroutines"`
	HeapAllocBytes   uint64        `json:"heap_alloc_bytes"`
	HeapObjects      uint64        `json:"heap_objects"`
	SysBytes         uint64        `json:"sys_bytes"`
	TotalAllocBytes  uint64        `json:"total_alloc_bytes"`
	Mallocs          uint64        `json:"mallocs"`
	GCCycles         uint32        `json:"gc_cycles"`
	GCPauseTotal     time.Duration `json:"gc_pause_total"`
	LastGCPause      time.Duration `json:"last_gc_pause"`
	AllocBytesPerSec float64       `json:"alloc_bytes_per_sec"`
	MallocsPerSec    float64       `json:"mallocs_per_sec"`
	SchedLatencyP50  time.Duration `json:"sched_latency_p50"`
	SchedLatencyP99  time.Duration `json:"sched_latency_p99"`
}

// Sampler owns the delta-based families (GC-pause histogram, alloc-rate
// gauges) and produces Snapshots. Safe for concurrent use; a nil *Sampler
// is a valid no-op whose Sample returns a zero Snapshot.
type Sampler struct {
	clock simclock.Clock

	gcPause   *obs.HistogramVec
	allocRate *obs.GaugeVec
	lastPause *obs.GaugeVec

	mu        sync.Mutex
	prevAt    time.Time
	prevAlloc uint64
	prevMall  uint64
	lastNumGC uint32
	started   bool
	stop      chan struct{}
	done      chan struct{}
}

// Register installs the runtime families on reg and returns a Sampler for
// the delta-based ones. The scrape-time collectors are live immediately;
// call Sample (or Start) to populate the histogram and rate gauges.
func Register(reg *obs.Registry, clock simclock.Clock) *Sampler {
	registerCollectors(reg)
	return &Sampler{
		clock: clock,
		gcPause: reg.Histogram("runtime_gc_pause_seconds",
			"Stop-the-world GC pause durations observed by the sampler.",
			gcPauseBuckets),
		allocRate: reg.Gauge("runtime_alloc_bytes_per_second",
			"Heap allocation rate over the last sampling window."),
		lastPause: reg.Gauge("runtime_last_gc_pause_seconds",
			"Duration of the most recent GC stop-the-world pause."),
	}
}

// registerCollectors wires the cheap scrape-time families.
func registerCollectors(reg *obs.Registry) {
	gauge := func(name, help, metric string) {
		reg.Collector(name, help, obs.KindGauge, nil, func() []obs.Sample {
			return []obs.Sample{{Value: readMetric(metric)}}
		})
	}
	counter := func(name, help, metric string) {
		reg.Collector(name, help, obs.KindCounter, nil, func() []obs.Sample {
			return []obs.Sample{{Value: readMetric(metric)}}
		})
	}
	gauge("runtime_goroutines", "Live goroutines.", mGoroutines)
	gauge("runtime_heap_alloc_bytes", "Bytes of live heap objects.", mHeapBytes)
	gauge("runtime_heap_objects", "Live heap objects.", mHeapObjects)
	gauge("runtime_sys_bytes", "Total bytes obtained from the OS.", mSysBytes)
	counter("runtime_gc_cycles_total", "Completed GC cycles.", mGCCycles)
	counter("runtime_mallocs_total", "Cumulative heap allocations.", mMallocs)
	counter("runtime_alloc_bytes_total", "Cumulative heap bytes allocated.", mAllocBytes)
	counter("runtime_mutex_wait_seconds_total",
		"Cumulative time goroutines have spent blocked on sync primitives.", mMutexWait)
	reg.Collector("runtime_sched_latency_seconds",
		"Approximate scheduling latency quantiles since process start.",
		obs.KindGauge, []string{"quantile"}, func() []obs.Sample {
			h := readHistogram(mSchedLatency)
			return []obs.Sample{
				{Labels: []string{"0.5"}, Value: histQuantile(h, 0.5)},
				{Labels: []string{"0.99"}, Value: histQuantile(h, 0.99)},
			}
		})
}

// readMetric reads one runtime/metrics counter as a float64.
func readMetric(name string) float64 {
	var buf [1]metrics.Sample
	buf[0].Name = name
	metrics.Read(buf[:])
	switch buf[0].Value.Kind() {
	case metrics.KindUint64:
		return float64(buf[0].Value.Uint64())
	case metrics.KindFloat64:
		return buf[0].Value.Float64()
	default:
		return 0
	}
}

// readHistogram reads one runtime/metrics histogram (nil if unsupported).
func readHistogram(name string) *metrics.Float64Histogram {
	var buf [1]metrics.Sample
	buf[0].Name = name
	metrics.Read(buf[:])
	if buf[0].Value.Kind() != metrics.KindFloat64Histogram {
		return nil
	}
	return buf[0].Value.Float64Histogram()
}

// histQuantile estimates quantile q from a runtime histogram by walking
// cumulative bucket counts and reporting the crossed bucket's upper bound
// (conservative: never under-reports latency).
func histQuantile(h *metrics.Float64Histogram, q float64) float64 {
	if h == nil || len(h.Counts) == 0 {
		return 0
	}
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum float64
	for i, c := range h.Counts {
		cum += float64(c)
		if cum >= rank {
			// Bucket i spans (Buckets[i], Buckets[i+1]].
			hi := h.Buckets[i+1]
			if math.IsInf(hi, 1) { // overflow bucket: report its lower bound
				return h.Buckets[i]
			}
			return hi
		}
	}
	return h.Buckets[len(h.Buckets)-1]
}

// Sample takes one full reading (runtime.ReadMemStats stop-the-world
// included), feeds the GC-pause histogram and rate gauges, and returns
// the snapshot. Call at sweep/report frequency, not per operation.
func (s *Sampler) Sample() Snapshot {
	if s == nil {
		return Snapshot{}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	now := s.clock.Now()

	snap := Snapshot{
		At:              now,
		Goroutines:      runtime.NumGoroutine(),
		HeapAllocBytes:  ms.HeapAlloc,
		HeapObjects:     ms.HeapObjects,
		SysBytes:        ms.Sys,
		TotalAllocBytes: ms.TotalAlloc,
		Mallocs:         ms.Mallocs,
		GCCycles:        ms.NumGC,
		GCPauseTotal:    time.Duration(ms.PauseTotalNs),
	}
	if ms.NumGC > 0 {
		snap.LastGCPause = time.Duration(ms.PauseNs[(ms.NumGC+255)%256])
	}
	if h := readHistogram(mSchedLatency); h != nil {
		snap.SchedLatencyP50 = time.Duration(histQuantile(h, 0.5) * float64(time.Second))
		snap.SchedLatencyP99 = time.Duration(histQuantile(h, 0.99) * float64(time.Second))
	}

	s.mu.Lock()
	// Feed pauses of GC cycles completed since the previous sample into
	// the histogram. PauseNs is a 256-entry ring indexed (n+255)%256 for
	// cycle n; if more than 256 cycles elapsed the overwritten ones are
	// unrecoverable, so clamp to the retained window.
	first := s.lastNumGC
	if ms.NumGC > 256 && first < ms.NumGC-256 {
		first = ms.NumGC - 256
	}
	for n := first + 1; n <= ms.NumGC; n++ {
		s.gcPause.Observe(float64(ms.PauseNs[(n+255)%256]) / 1e9)
	}
	s.lastNumGC = ms.NumGC

	if !s.prevAt.IsZero() {
		if dt := now.Sub(s.prevAt).Seconds(); dt > 0 {
			snap.AllocBytesPerSec = float64(ms.TotalAlloc-s.prevAlloc) / dt
			snap.MallocsPerSec = float64(ms.Mallocs-s.prevMall) / dt
		}
	}
	s.prevAt, s.prevAlloc, s.prevMall = now, ms.TotalAlloc, ms.Mallocs
	s.mu.Unlock()

	s.allocRate.Set(snap.AllocBytesPerSec)
	s.lastPause.Set(snap.LastGCPause.Seconds())
	return snap
}

// Start launches a background goroutine sampling every interval of wall
// time until Stop. Starting an already-started sampler is a no-op.
func (s *Sampler) Start(interval time.Duration) {
	if s == nil || interval <= 0 {
		return
	}
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return
	}
	s.started = true
	stop := make(chan struct{})
	done := make(chan struct{})
	s.stop, s.done = stop, done
	s.mu.Unlock()

	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			case <-simclock.Real{}.After(interval):
				s.Sample()
			}
		}
	}()
}

// Stop halts the background goroutine and waits for it to exit. Stopping
// a never-started (or already-stopped) sampler is a no-op.
func (s *Sampler) Stop() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.started {
		s.mu.Unlock()
		return
	}
	s.started = false
	stop, done := s.stop, s.done
	s.mu.Unlock()
	close(stop)
	<-done
}
