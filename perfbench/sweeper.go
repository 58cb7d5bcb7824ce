package main

import (
	"sort"
	"sync"
	"time"

	"repro/internal/socialgraph"
)

// sweeper ages edge history out of a store in the background, as a
// platform's maintenance job would: the open-loop generator calls due
// with each arrival's offset, and at every multiple of every the sweeper
// goroutine runs Store.RetentionSweep at simulated time epoch+offset.
// Foreground operations keep running on every stripe the sweep does not
// hold.
type sweeper struct {
	g     *socialgraph.Store
	epoch time.Time
	base  time.Time // wall origin of the recorded intervals
	every time.Duration
	next  time.Duration
	ch    chan time.Duration
	done  sync.WaitGroup

	// Written by the sweeper goroutine, read after stop.
	spans   [][2]time.Duration // wall intervals, offsets from base
	evicted int64              // likes evicted
	// skipped counts triggers that found the previous sweep still running.
	skipped int
}

func startSweeper(g *socialgraph.Store, epoch, base time.Time, every time.Duration) *sweeper {
	s := &sweeper{g: g, epoch: epoch, base: base, every: every, next: every, ch: make(chan time.Duration, 1)}
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		for at := range s.ch {
			t0 := time.Since(s.base)
			res := s.g.RetentionSweep(s.epoch.Add(at))
			s.spans = append(s.spans, [2]time.Duration{t0, time.Since(s.base)})
			s.evicted += res.Likes
		}
	}()
	return s
}

// due triggers the sweeps scheduled at or before offset at.
func (s *sweeper) due(at time.Duration) {
	for at >= s.next {
		select {
		case s.ch <- s.next:
		default:
			s.skipped++
		}
		s.next += s.every
	}
}

// stop waits for the running sweep, if any, and ends the goroutine.
func (s *sweeper) stop() {
	close(s.ch)
	s.done.Wait()
}

// durations returns how long each sweep ran.
func (s *sweeper) durations() []time.Duration {
	out := make([]time.Duration, len(s.spans))
	for i, sp := range s.spans {
		out[i] = sp[1] - sp[0]
	}
	return out
}

// stalled counts the timings that fell due while a sweep ran.
func (s *sweeper) stalled(timings []opTiming) int64 {
	iv := append([][2]time.Duration(nil), s.spans...)
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var n int64
	for _, t := range timings {
		j := sort.Search(len(iv), func(j int) bool { return iv[j][1] >= t.due })
		if j < len(iv) && iv[j][0] <= t.due {
			n++
		}
	}
	return n
}
