package obs

import (
	"math"
	"testing"
)

func quantileHist(t *testing.T, buckets []float64, values []float64) *BoundHistogram {
	t.Helper()
	r := NewRegistry()
	h := r.Histogram("q_test_seconds", "test", buckets).With()
	for _, v := range values {
		h.Observe(v)
	}
	return h
}

func TestQuantileLinearInterpolation(t *testing.T) {
	// 100 observations spread evenly through the 0–1 bucket: quantiles
	// interpolate linearly inside it.
	buckets := []float64{1, 2, 4}
	var values []float64
	for i := 0; i < 100; i++ {
		values = append(values, float64(i)/100)
	}
	h := quantileHist(t, buckets, values)
	if got := h.Snapshot().Quantile(0.5); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("p50 = %v, want 0.5", got)
	}
	if got := h.Snapshot().Quantile(0.99); math.Abs(got-0.99) > 1e-9 {
		t.Fatalf("p99 = %v, want 0.99", got)
	}
}

func TestQuantileAcrossBuckets(t *testing.T) {
	// 50 observations in (0,1], 50 in (1,2]: the median sits at the
	// boundary and p75 interpolates halfway through the second bucket.
	buckets := []float64{1, 2, 4}
	var values []float64
	for i := 0; i < 50; i++ {
		values = append(values, 0.5, 1.5)
	}
	h := quantileHist(t, buckets, values)
	if got := h.Snapshot().Quantile(0.75); math.Abs(got-1.5) > 1e-9 {
		t.Fatalf("p75 = %v, want 1.5", got)
	}
	if got := h.Snapshot().Quantile(1.0); math.Abs(got-2.0) > 1e-9 {
		t.Fatalf("p100 = %v, want 2.0", got)
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	buckets := []float64{1, 2}
	empty := quantileHist(t, buckets, nil)
	if got := empty.Snapshot().Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram p50 = %v, want 0", got)
	}
	// Everything lands in the +Inf overflow bucket: the estimate clamps
	// to the last finite bound instead of inventing an infinite latency.
	over := quantileHist(t, buckets, []float64{10, 20, 30})
	if got := over.Snapshot().Quantile(0.99); got != 2 {
		t.Fatalf("overflow p99 = %v, want clamp to 2", got)
	}
	var nilH *BoundHistogram
	if got := nilH.Snapshot().Quantile(0.5); got != 0 {
		t.Fatalf("nil histogram p50 = %v", got)
	}
}

func TestSnapshotMatchesObservations(t *testing.T) {
	h := quantileHist(t, []float64{1, 2}, []float64{0.5, 1.5, 3})
	s := h.Snapshot()
	if s.Count != 3 {
		t.Fatalf("Count = %d", s.Count)
	}
	if math.Abs(s.Sum-5.0) > 1e-9 {
		t.Fatalf("Sum = %v", s.Sum)
	}
	wantCounts := []int64{1, 1, 1} // one per bucket incl. overflow
	if len(s.Counts) != len(wantCounts) {
		t.Fatalf("Counts = %v", s.Counts)
	}
	for i, c := range wantCounts {
		if s.Counts[i] != c {
			t.Fatalf("Counts = %v, want %v", s.Counts, wantCounts)
		}
	}
}
