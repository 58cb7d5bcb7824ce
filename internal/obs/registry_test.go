package obs

import (
	"strings"
	"testing"
)

// Value returns the current count (0 for nil instruments).
func (b *BoundCounter) Value() int64 {
	if b == nil {
		return 0
	}
	return b.s.counter.Load()
}

// TestWriteTextGolden locks down the exposition format end to end:
// family ordering, series ordering, histogram cumulative-bucket math,
// +Inf/_sum/_count lines, and label-value escaping. Scrape tests
// elsewhere grep this output, so the exact shape is load-bearing.
func TestWriteTextGolden(t *testing.T) {
	r := NewRegistry()

	likes := r.Counter("likes_total", "Likes delivered, by network.", "network")
	likes.Add(7, "official-liker")
	likes.Inc("hublaa")

	r.Gauge("pool_size", "Live tokens in the pool.", "network").Set(1024, "hublaa")

	// Observations chosen to be exactly representable in binary so the
	// _sum line is byte-stable.
	h := r.Histogram("latency_seconds", "Call latency.", []float64{0.01, 0.1, 1}, "op")
	h.Observe(0.0078125, "like")
	h.Observe(0.0625, "like")
	h.Observe(0.0625, "like")
	h.Observe(4, "like")

	r.Counter("weird_total", `Escape \ test.`, "k").Inc("a\\b\"c\nd")

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP latency_seconds Call latency.
# TYPE latency_seconds histogram
latency_seconds_bucket{op="like",le="0.01"} 1
latency_seconds_bucket{op="like",le="0.1"} 3
latency_seconds_bucket{op="like",le="1"} 3
latency_seconds_bucket{op="like",le="+Inf"} 4
latency_seconds_sum{op="like"} 4.1328125
latency_seconds_count{op="like"} 4
# HELP likes_total Likes delivered, by network.
# TYPE likes_total counter
likes_total{network="hublaa"} 1
likes_total{network="official-liker"} 7
# HELP pool_size Live tokens in the pool.
# TYPE pool_size gauge
pool_size{network="hublaa"} 1024
# HELP weird_total Escape \\ test.
# TYPE weird_total counter
weird_total{k="a\\b\"c\nd"} 1
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestRegistryReRegister verifies that two subsystems binding the same
// family (same name, kind, labels) share series, and that a conflicting
// shape panics instead of silently forking the data.
func TestRegistryReRegister(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("defense_actions_total", "Defense actions.", "countermeasure", "action")
	b := r.Counter("defense_actions_total", "Defense actions.", "countermeasure", "action")
	a.Inc("synchrotrap", "deploy")
	b.Inc("synchrotrap", "deploy")
	if got := a.With("synchrotrap", "deploy").Value(); got != 2 {
		t.Errorf("shared series = %d, want 2", got)
	}

	defer func() {
		if recover() == nil {
			t.Error("conflicting re-registration did not panic")
		}
	}()
	r.Counter("defense_actions_total", "Defense actions.", "other")
}

func TestRegistryCollector(t *testing.T) {
	r := NewRegistry()
	r.Collector("shard_lock_total", "Lock acquisitions.", KindCounter, []string{"shard", "outcome"},
		func() []Sample {
			return []Sample{
				{Labels: []string{"1", "fast"}, Value: 9},
				{Labels: []string{"0", "contended"}, Value: 2},
			}
		})
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP shard_lock_total Lock acquisitions.
# TYPE shard_lock_total counter
shard_lock_total{shard="0",outcome="contended"} 2
shard_lock_total{shard="1",outcome="fast"} 9
`
	if got := b.String(); got != want {
		t.Errorf("collector exposition mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestNilRegistry exercises every instrument path on a nil registry: all
// must be silent no-ops so uninstrumented construction works.
func TestNilRegistry(t *testing.T) {
	var r *Registry
	c := r.Counter("x", "")
	c.Inc()
	c.Add(3, "v")
	c.With().Inc()
	if c.With().Value() != 0 {
		t.Error("nil bound counter Value != 0")
	}
	r.Gauge("y", "").Set(1)
	h := r.Histogram("z", "", nil)
	h.Observe(1)
	h.With().Observe(1)
	r.Collector("w", "", KindCounter, nil, nil)
	if err := r.WriteText(&strings.Builder{}); err != nil {
		t.Errorf("nil WriteText: %v", err)
	}
}

func TestCounterPanicsOnNegative(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Error("negative Add did not panic")
		}
	}()
	r.Counter("n_total", "").Add(-1)
}

// TestLabelledLookupAllocFree pins the per-call label lookup of an
// existing series at zero allocations: Graph API denials and error codes
// land in labelled series on every call once telemetry is attached.
func TestLabelledLookupAllocFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", "", "platform", "op", "code")
	g := r.Gauge("pool_size", "", "network")
	h := r.Histogram("latency_seconds", "", nil, "platform", "op")
	long := strings.Repeat("x", 200) // longer than the stack key buffer
	c.Inc("facebook", "like", "613")
	c.Inc("facebook", "like", long)
	g.Set(1, "hublaa")
	h.Observe(0.5, "facebook", "like")
	for name, call := range map[string]func(){
		"CounterVec.Inc":       func() { c.Inc("facebook", "like", "613") },
		"CounterVec.Add":       func() { c.Add(2, "facebook", "like", "613") },
		"GaugeVec.Set":         func() { g.Set(2, "hublaa") },
		"HistogramVec.Observe": func() { h.Observe(0.5, "facebook", "like") },
	} {
		if allocs := testing.AllocsPerRun(100, call); allocs != 0 {
			t.Errorf("%s on an existing series = %.0f allocs/run, want 0", name, allocs)
		}
	}
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	// One warm Inc, then 101 Inc and 101 Add(2): AllocsPerRun adds a
	// warm-up call to its 100 runs.
	for _, want := range []string{
		`requests_total{platform="facebook",op="like",code="613"} 304`,
		`requests_total{platform="facebook",op="like",code="` + long + `"} 1`,
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("exposition lacks %s", want)
		}
	}
}
