package metrics

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

var origin = time.Date(2016, time.August, 1, 0, 0, 0, 0, time.UTC)

func TestCounterBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("Value = %d, want 5", got)
	}
}

func TestCounterNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative Add did not panic")
		}
	}()
	var c Counter
	c.Add(-1)
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 16000 {
		t.Fatalf("Value = %d, want 16000", got)
	}
}

func TestSeriesBucketing(t *testing.T) {
	s := NewSeries(origin, 24*time.Hour)
	cases := []struct {
		t    time.Time
		want int
	}{
		{origin, 0},
		{origin.Add(23 * time.Hour), 0},
		{origin.Add(24 * time.Hour), 1},
		{origin.Add(10 * 24 * time.Hour), 10},
		{origin.Add(-time.Hour), -1},
		{origin.Add(-25 * time.Hour), -2},
	}
	for _, tc := range cases {
		if got := s.Bucket(tc.t); got != tc.want {
			t.Errorf("Bucket(%v) = %d, want %d", tc.t, got, tc.want)
		}
	}
}

func TestSeriesMeans(t *testing.T) {
	s := NewSeries(origin, 24*time.Hour)
	s.Observe(origin.Add(time.Hour), 400)
	s.Observe(origin.Add(2*time.Hour), 200)
	s.Observe(origin.Add(26*time.Hour), 100)
	pts := s.Points()
	if len(pts) != 2 {
		t.Fatalf("len(Points) = %d, want 2", len(pts))
	}
	if pts[0].Mean != 300 || pts[1].Mean != 100 {
		t.Fatalf("Points = %+v", pts)
	}
}

func TestSeriesFillsGaps(t *testing.T) {
	s := NewSeries(origin, time.Hour)
	s.Observe(origin, 1)
	s.Observe(origin.Add(5*time.Hour), 1)
	pts := s.Points()
	if len(pts) != 6 {
		t.Fatalf("len(Points) = %d, want 6 (gap buckets included)", len(pts))
	}
	for i := 1; i < 5; i++ {
		if pts[i].Count != 0 {
			t.Fatalf("gap bucket %d has count %d", i, pts[i].Count)
		}
	}
}

func TestSeriesEmpty(t *testing.T) {
	s := NewSeries(origin, time.Hour)
	if pts := s.Points(); pts != nil {
		t.Fatalf("empty series Points = %v, want nil", pts)
	}
}

func TestSeriesZeroWidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero-width series did not panic")
		}
	}()
	NewSeries(origin, 0)
}

func TestIntHistogram(t *testing.T) {
	h := NewIntHistogram()
	for i := 0; i < 76; i++ {
		h.Observe(1)
	}
	for i := 0; i < 24; i++ {
		h.Observe(3)
	}
	bins := h.Bins()
	if len(bins) != 2 {
		t.Fatalf("len(Bins) = %d, want 2", len(bins))
	}
	if bins[0].Value != 1 || bins[0].Count != 76 {
		t.Fatalf("bin0 = %+v", bins[0])
	}
	if f := bins[0].Fraction; f != 0.76 {
		t.Fatalf("bin0 fraction = %v, want 0.76", f)
	}
	if bins[1].Value != 3 || bins[1].Count != 24 || bins[1].Fraction != 0.24 {
		t.Fatalf("bin1 = %+v", bins[1])
	}
}

func TestIntHistogramEmpty(t *testing.T) {
	h := NewIntHistogram()
	if bins := h.Bins(); len(bins) != 0 {
		t.Fatalf("empty histogram Bins = %v", bins)
	}
}

func TestUniqueTrackerDiminishingReturns(t *testing.T) {
	u := NewUniqueTracker()
	p1 := u.Step([]string{"a", "b", "c"})
	if p1.CumulativeEvents != 3 || p1.CumulativeUnique != 3 || p1.Step != 1 {
		t.Fatalf("p1 = %+v", p1)
	}
	p2 := u.Step([]string{"b", "c", "d"})
	if p2.CumulativeEvents != 6 || p2.CumulativeUnique != 4 {
		t.Fatalf("p2 = %+v", p2)
	}
	pts := u.Points()
	if len(pts) != 2 {
		t.Fatalf("len(Points) = %d, want 2", len(pts))
	}
	if u.Unique() != 4 {
		t.Fatalf("Unique = %d, want 4", u.Unique())
	}
}

// Property: cumulative unique count never exceeds cumulative events and
// both are non-decreasing.
func TestQuickUniqueTrackerInvariants(t *testing.T) {
	f := func(batches [][]byte) bool {
		u := NewUniqueTracker()
		var prev UniquePoint
		for _, b := range batches {
			keys := make([]string, len(b))
			for i, x := range b {
				keys[i] = fmt.Sprintf("k%d", x%32)
			}
			p := u.Step(keys)
			if p.CumulativeUnique > p.CumulativeEvents {
				return false
			}
			if p.CumulativeEvents < prev.CumulativeEvents || p.CumulativeUnique < prev.CumulativeUnique {
				return false
			}
			prev = p
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: a Series mean is always within [min, max] of observed values.
func TestQuickSeriesMeanBounded(t *testing.T) {
	f := func(vals []uint16) bool {
		if len(vals) == 0 {
			return true
		}
		s := NewSeries(origin, time.Hour)
		min, max := float64(vals[0]), float64(vals[0])
		for _, v := range vals {
			fv := float64(v)
			s.Observe(origin, fv)
			if fv < min {
				min = fv
			}
			if fv > max {
				max = fv
			}
		}
		pts := s.Points()
		return len(pts) == 1 && pts[0].Mean >= min && pts[0].Mean <= max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
