package obs

import "math"

// Histogram read API. The SLO reports (scale-mode p50/p99 like latency)
// are computed from the same bucketed histograms /metrics exposes, using
// the standard Prometheus histogram_quantile estimation: find the bucket
// the requested rank falls in and interpolate linearly inside it. The
// estimate is deterministic for a fixed set of observations, which is
// what makes the fixed-seed SLO report byte-stable.

// HistogramSnapshot is a point-in-time copy of one histogram series.
type HistogramSnapshot struct {
	// UpperBounds are the bucket upper bounds (ascending, no +Inf).
	UpperBounds []float64
	// Counts are per-bucket (non-cumulative) counts; len(UpperBounds)+1
	// entries, the last being the +Inf overflow bucket.
	Counts []int64
	// Count is the total number of observations.
	Count int64
	// Sum is the sum of observed values.
	Sum float64
}

// Snapshot copies the histogram's current state. Nil instruments yield a
// zero snapshot.
func (b *BoundHistogram) Snapshot() HistogramSnapshot {
	if b == nil || b.h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		UpperBounds: b.buckets,
		Counts:      make([]int64, len(b.h.counts)),
	}
	for i := range b.h.counts {
		c := b.h.counts[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	s.Sum = math.Float64frombits(b.h.sumBits.Load())
	return s
}

// Quantile estimates the q-quantile (0 <= q <= 1) of the observed values
// by linear interpolation within the bucket the rank falls in, exactly as
// Prometheus's histogram_quantile does. Ranks landing in the +Inf
// overflow bucket clamp to the highest finite upper bound. A snapshot
// with no observations yields 0.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Counts) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum float64
	for i, c := range s.Counts {
		prev := cum
		cum += float64(c)
		if cum < rank || c == 0 {
			continue
		}
		if i >= len(s.UpperBounds) {
			// Overflow bucket: clamp to the last finite bound.
			if len(s.UpperBounds) == 0 {
				return 0
			}
			return s.UpperBounds[len(s.UpperBounds)-1]
		}
		lower := 0.0
		if i > 0 {
			lower = s.UpperBounds[i-1]
		}
		upper := s.UpperBounds[i]
		return lower + (upper-lower)*(rank-prev)/float64(c)
	}
	if len(s.UpperBounds) == 0 {
		return 0
	}
	return s.UpperBounds[len(s.UpperBounds)-1]
}
