package obs

import (
	"context"
	"strconv"
	"strings"
	"testing"
)

// scrapeValue extracts one series' value from a text exposition scrape.
func scrapeValue(t *testing.T, reg *Registry, series string) float64 {
	t.Helper()
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(sb.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("series %q not in scrape:\n%s", series, sb.String())
	return 0
}

var allocSink any

// TestAllocMeterMeasuresForcedAllocs: a window around an op that
// allocates must report allocs_per_op > 0 and bytes to match. The forced
// objects are large (over 32 KiB), which the runtime counts as it
// allocates them; small objects reach its counters only when their span
// leaves the P's cache, so a short window can miss some of them.
func TestAllocMeterMeasuresForcedAllocs(t *testing.T) {
	reg := NewRegistry()
	m := NewAllocMeter(reg, DefaultPlatformLabel)
	m.SetSampleEvery(1)

	const ops, size = 10, 64 << 10
	s := m.Begin(context.Background(), "forced")
	for i := 0; i < ops; i++ {
		allocSink = make([]byte, size)
	}
	s.End(ops)

	if got := scrapeValue(t, reg, `allocs_per_op{platform="default",op="forced"}`); got <= 0 {
		t.Errorf("allocs_per_op = %v, want > 0 after %d forced allocations", got, ops)
	}
	// Each op allocated size bytes; the per-op byte figure must at least
	// reflect that (concurrent test allocations can only push it up).
	if got := scrapeValue(t, reg, `alloc_bytes_per_op{platform="default",op="forced"}`); got < size {
		t.Errorf("alloc_bytes_per_op = %v, want >= %d", got, size)
	}
	if got := scrapeValue(t, reg, `allocmeter_windows_total{platform="default",op="forced"}`); got != 1 {
		t.Errorf("allocmeter_windows_total = %v, want 1", got)
	}
}

// TestAllocMeterUnsampledZeroOverhead: under an UnsampledContext the
// meter must not allocate at all — the same guarantee tracing gives the
// non-sampled iterations of a delivery burst.
func TestAllocMeterUnsampledZeroOverhead(t *testing.T) {
	m := NewAllocMeter(NewRegistry(), DefaultPlatformLabel)
	m.SetSampleEvery(1)
	ctx := UnsampledContext(context.Background())

	allocs := testing.AllocsPerRun(100, func() {
		s := m.Begin(ctx, "hot")
		s.End(1)
	})
	if allocs != 0 {
		t.Errorf("unsampled Begin/End allocated %v objects per run, want 0", allocs)
	}

	// A nil meter is equally free.
	var nilMeter *AllocMeter
	allocs = testing.AllocsPerRun(100, func() {
		s := nilMeter.Begin(context.Background(), "hot")
		s.End(1)
	})
	if allocs != 0 {
		t.Errorf("nil-meter Begin/End allocated %v objects per run, want 0", allocs)
	}
}

// TestAllocMeterStride: with SetSampleEvery(4), exactly 1 in 4 eligible
// windows is measured.
func TestAllocMeterStride(t *testing.T) {
	reg := NewRegistry()
	m := NewAllocMeter(reg, DefaultPlatformLabel)
	m.SetSampleEvery(4)

	for i := 0; i < 16; i++ {
		s := m.Begin(context.Background(), "strided")
		allocSink = make([]byte, 64)
		s.End(1)
	}
	if got := scrapeValue(t, reg, `allocmeter_windows_total{platform="default",op="strided"}`); got != 4 {
		t.Errorf("allocmeter_windows_total = %v, want 4 (16 calls / stride 4)", got)
	}
}

// TestSampledHelper pins the ctx gate the meter shares with tracing.
func TestSampledHelper(t *testing.T) {
	if !Sampled(nil) {
		t.Error("Sampled(nil) = false, want true (matches StartSpan)")
	}
	if !Sampled(context.Background()) {
		t.Error("Sampled(Background) = false, want true")
	}
	if Sampled(UnsampledContext(context.Background())) {
		t.Error("Sampled(UnsampledContext) = true, want false")
	}
	tr := NewTracer(nil, 8)
	ctx, span := tr.StartSpan(context.Background(), "x")
	if !Sampled(ctx) {
		t.Error("Sampled(span ctx) = false, want true")
	}
	span.End()
}

// TestAllocMeterPlatformLabel: a meter bound to a provider name labels
// its families with it, so multi-provider registries split cleanly.
func TestAllocMeterPlatformLabel(t *testing.T) {
	reg := NewRegistry()
	m := NewAllocMeter(reg, "pictogram")
	m.SetSampleEvery(1)
	s := m.Begin(context.Background(), "op")
	allocSink = make([]byte, 64)
	s.End(1)
	if got := scrapeValue(t, reg, `allocmeter_windows_total{platform="pictogram",op="op"}`); got != 1 {
		t.Errorf("allocmeter_windows_total{platform=pictogram} = %v, want 1", got)
	}
}
