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
	"container/heap"
	"sync"
	"sync/atomic"
	"time"
)

// Clock is the minimal time source used throughout the repository.
// Implementations must be safe for concurrent use.
type Clock interface {
	// Now returns the current instant.
	Now() time.Time
	// After returns a channel that delivers the then-current time once the
	// clock has advanced by at least d.
	After(d time.Duration) <-chan time.Time
	// Sleep blocks until the clock has advanced by at least d.
	Sleep(d time.Duration)
}

// Real is a Clock backed by the operating system clock.
type Real struct{}

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// After implements Clock.
func (Real) After(d time.Duration) <-chan time.Time { return time.After(d) }

// Sleep implements Clock.
func (Real) Sleep(d time.Duration) { time.Sleep(d) }

// waiter is a pending After/Sleep registration on a Simulated clock.
type waiter struct {
	deadline time.Time
	ch       chan time.Time
	index    int
	seq      uint64
}

// waiterHeap orders waiters by deadline, breaking ties by registration
// order so that wakeups are deterministic.
type waiterHeap []*waiter

func (h waiterHeap) Len() int { return len(h) }
func (h waiterHeap) Less(i, j int) bool {
	if h[i].deadline.Equal(h[j].deadline) {
		return h[i].seq < h[j].seq
	}
	return h[i].deadline.Before(h[j].deadline)
}
func (h waiterHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *waiterHeap) Push(x any) {
	w := x.(*waiter)
	w.index = len(*h)
	*h = append(*h, w)
}
func (h *waiterHeap) Pop() any {
	old := *h
	n := len(old)
	w := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return w
}

// Simulated is a deterministic Clock whose time only moves when Advance or
// AdvanceTo is called. It is safe for concurrent use.
type Simulated struct {
	mu      sync.Mutex
	base    time.Time    // construction instant; immutable after NewSimulated
	offset  atomic.Int64 // nanoseconds advanced past base
	waiters waiterHeap
	seq     uint64
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

// nowLocked returns the current instant; callers hold s.mu.
func (s *Simulated) nowLocked() time.Time {
	return s.base.Add(time.Duration(s.offset.Load()))
}

// setNowLocked publishes a new current instant; callers hold s.mu and
// never move time backwards.
func (s *Simulated) setNowLocked(t time.Time) {
	s.offset.Store(int64(t.Sub(s.base)))
}

// After implements Clock. The returned channel has capacity 1, so the
// clock never blocks on delivery.
func (s *Simulated) After(d time.Duration) <-chan time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	ch := make(chan time.Time, 1)
	now := s.nowLocked()
	if d <= 0 {
		ch <- now
		return ch
	}
	s.seq++
	heap.Push(&s.waiters, &waiter{deadline: now.Add(d), ch: ch, seq: s.seq})
	return ch
}

// Sleep implements Clock. It blocks the calling goroutine until another
// goroutine advances the clock past the deadline.
func (s *Simulated) Sleep(d time.Duration) {
	<-s.After(d)
}

// Advance moves the clock forward by d, firing any waiters whose deadlines
// are reached, in deadline order.
func (s *Simulated) Advance(d time.Duration) {
	if d < 0 {
		panic("simclock: negative advance")
	}
	s.mu.Lock()
	target := s.nowLocked().Add(d)
	s.advanceToLocked(target)
	s.mu.Unlock()
}

// AdvanceTo moves the clock forward to t. Moving backwards is a no-op.
func (s *Simulated) AdvanceTo(t time.Time) {
	s.mu.Lock()
	if t.After(s.nowLocked()) {
		s.advanceToLocked(t)
	}
	s.mu.Unlock()
}

func (s *Simulated) advanceToLocked(target time.Time) {
	for len(s.waiters) > 0 && !s.waiters[0].deadline.After(target) {
		w := heap.Pop(&s.waiters).(*waiter)
		// Deliver the waiter's own deadline so steps observe monotonically
		// non-decreasing times even when several deadlines fire in one
		// Advance call.
		s.setNowLocked(w.deadline)
		w.ch <- w.deadline
	}
	s.setNowLocked(target)
}

// PendingWaiters reports how many After/Sleep registrations have not fired
// yet. It exists for tests.
func (s *Simulated) PendingWaiters() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.waiters)
}
