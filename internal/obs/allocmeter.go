package obs

import (
	"context"
	"runtime/metrics"
	"sync/atomic"
)

// DefaultAllocSampleEvery is the meter-wide stride between measured
// windows. The ROADMAP's "allocation-free hot paths" work needs
// allocs-per-op numbers from the live system, but the cheapest runtime
// read is still ~microseconds — unacceptable on a per-like path that runs
// in tens of microseconds. One measured window per 16 sampled actions
// keeps the families fresh (every op label refills within a few rounds)
// while the amortized cost per action is a single atomic add.
const DefaultAllocSampleEvery = 16

// Runtime counter names read around each measured window. Cumulative
// monotonic counts maintained by the allocator itself; reading them does
// not stop the world (unlike runtime.ReadMemStats, which would be ruinous
// here — it is reserved for the low-frequency runtimestats sampler).
const (
	metricHeapAllocObjects = "/gc/heap/allocs:objects"
	metricHeapAllocBytes   = "/gc/heap/allocs:bytes"
)

// AllocMeter measures heap allocations attributable to a hot-path
// operation by differencing the runtime's cumulative allocation counters
// around the sampled action of a burst. It follows the same
// UnsampledContext discipline as tracing (PR 3): the one sampled action
// per delivery burst is eligible for measurement, the unsampled remainder
// costs a pointer compare, and exact counters elsewhere are untouched.
//
// Three caveats are inherent and documented rather than fought:
//
//   - The counters are process-global, so allocations by concurrent
//     goroutines land inside the window. The emitted gauges are sampled
//     estimates for trend-watching, not exact attributions — the
//     benchmarks and testing.AllocsPerRun gates stay the ground truth.
//   - The measurement itself may allocate a few objects (the
//     metrics.Read sample buffer), biasing small windows upward by
//     O(1) allocs. Per-op figures over a 50-like burst absorb this.
//   - The runtime credits small objects (32 KiB and under) to its
//     counters only when a P's cached span is swapped out or flushed,
//     so a window misses the small objects still in cached spans when
//     it closes (and credits earlier ones whose span it swaps out),
//     which can bias small windows downward. Large objects are counted
//     as they are allocated.
//
// A nil *AllocMeter is a valid no-op.
type AllocMeter struct {
	n     atomic.Uint64 // stride counter across all ops
	every atomic.Uint64 // sample 1 window in every N eligible Begins

	platform string      // value of the families' platform label
	perOp    *GaugeVec   // allocs_per_op{platform,op}
	bytesOp  *GaugeVec   // alloc_bytes_per_op{platform,op}
	windows  *CounterVec // allocmeter_windows_total{platform,op}
}

// DefaultPlatformLabel is the platform label value for meters not bound
// to a specific provider (benchmark worlds, the milker's own meter).
const DefaultPlatformLabel = "default"

// NewAllocMeter registers the meter's families on r and returns a meter
// with the default sampling stride. platform is the value of the
// families' platform label, so multi-provider deployments split
// allocs-per-op by platform on one registry. A nil registry yields a
// meter whose measurements go nowhere but whose gating still works
// (useful in tests).
func NewAllocMeter(r *Registry, platform string) *AllocMeter {
	m := &AllocMeter{
		platform: platform,
		perOp: r.Gauge("allocs_per_op",
			"Sampled heap allocations per operation on a hot path, by platform and op.",
			"platform", "op"),
		bytesOp: r.Gauge("alloc_bytes_per_op",
			"Sampled heap bytes allocated per operation on a hot path, by platform and op.",
			"platform", "op"),
		windows: r.Counter("allocmeter_windows_total",
			"Measured allocation windows, by platform and op.",
			"platform", "op"),
	}
	m.every.Store(DefaultAllocSampleEvery)
	return m
}

// SetSampleEvery sets the stride between measured windows (minimum 1 =
// measure every sampled action; tests use this for determinism).
func (m *AllocMeter) SetSampleEvery(n uint64) {
	if m == nil {
		return
	}
	if n < 1 {
		n = 1
	}
	m.every.Store(n)
}

// AllocSample is one open measurement window. The zero value (unarmed) is
// what unsampled or stridden-past Begins return; its End is a no-op.
type AllocSample struct {
	m       *AllocMeter
	op      string
	objects uint64
	bytes   uint64
	armed   bool
}

// readAllocCounters reads the cumulative allocation counters.
func readAllocCounters() (objects, bytes uint64) {
	var buf [2]metrics.Sample
	buf[0].Name = metricHeapAllocObjects
	buf[1].Name = metricHeapAllocBytes
	metrics.Read(buf[:])
	return buf[0].Value.Uint64(), buf[1].Value.Uint64()
}

// Begin opens a measurement window for op if ctx is sampled and the
// stride elects this call; otherwise it returns an unarmed window.
func (m *AllocMeter) Begin(ctx context.Context, op string) AllocSample {
	if m == nil || !Sampled(ctx) {
		return AllocSample{}
	}
	if every := m.every.Load(); every > 1 && m.n.Add(1)%every != 1 {
		return AllocSample{}
	}
	s := AllocSample{m: m, op: op, armed: true}
	s.objects, s.bytes = readAllocCounters()
	return s
}

// End closes the window and records allocations per operation, where ops
// is how many logical operations the window covered (len of the burst for
// graphapi.like_batch, 1 for a chain evaluation). Unarmed windows and
// non-positive ops are no-ops.
func (s AllocSample) End(ops int) {
	if !s.armed || ops <= 0 {
		return
	}
	objects, bytes := readAllocCounters()
	s.m.perOp.Set(float64(objects-s.objects)/float64(ops), s.m.platform, s.op)
	s.m.bytesOp.Set(float64(bytes-s.bytes)/float64(ops), s.m.platform, s.op)
	s.m.windows.Inc(s.m.platform, s.op)
}
