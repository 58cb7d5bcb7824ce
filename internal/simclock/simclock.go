// Package simclock provides an injectable clock abstraction so that every
// time-dependent component in the reproduction (token lifetimes, rate
// limiter windows, delivery schedules, analytics buckets) can run against
// either the real wall clock or a deterministic simulated clock.
//
// The paper's measurements span months of wall time (Nov 2015 – Feb 2016
// milking, Aug – Oct 2016 countermeasures). A simulated clock lets the
// 75-day countermeasure timeline of Figure 5 execute in milliseconds while
// preserving the ordering and rate semantics that the countermeasures
// depend on.
package simclock

import (
	"sync"
	"sync/atomic"
	"time"
)

// Clock is the minimal time source used throughout the repository.
// Implementations must be safe for concurrent use.
type Clock interface {
	// Now returns the current instant.
	Now() time.Time
}

// Real is a Clock backed by the operating system clock.
type Real struct{}

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// After returns a channel that delivers the wall-clock time once d has
// elapsed: the sanctioned wall-clock timer for packages the simclock
// analyzer keeps off package time. Simulated has no timers; simulated
// timelines move only by explicit Advance calls.
func (Real) After(d time.Duration) <-chan time.Time { return time.After(d) }

// Simulated is a deterministic Clock whose time only moves when Advance or
// AdvanceTo is called. It is safe for concurrent use.
type Simulated struct {
	mu     sync.Mutex   // serialises Advance and AdvanceTo
	base   time.Time    // construction instant; immutable after NewSimulated
	offset atomic.Int64 // nanoseconds advanced past base
}

// NewSimulated returns a Simulated clock initialised to start.
func NewSimulated(start time.Time) *Simulated {
	return &Simulated{base: start}
}

// Now implements Clock. It is lock-free: simulated time is the immutable
// base plus an atomically-published offset, so the hottest call in the
// whole simulation (every like reads the clock) never contends with
// concurrent readers or an in-flight Advance.
func (s *Simulated) Now() time.Time {
	return s.base.Add(time.Duration(s.offset.Load()))
}

// Advance moves the clock forward by d.
func (s *Simulated) Advance(d time.Duration) {
	if d < 0 {
		panic("simclock: negative advance")
	}
	s.mu.Lock()
	s.offset.Add(int64(d))
	s.mu.Unlock()
}

// AdvanceTo moves the clock forward to t. Moving backwards is a no-op.
func (s *Simulated) AdvanceTo(t time.Time) {
	s.mu.Lock()
	if t.After(s.Now()) {
		s.offset.Store(int64(t.Sub(s.base)))
	}
	s.mu.Unlock()
}
