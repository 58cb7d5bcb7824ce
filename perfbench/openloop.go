package main

import (
	"sync"
	"time"
)

// Open-loop driver. Arrivals are due on a fixed wall-clock schedule,
// whether or not earlier ones have finished. One generator goroutine
// issues each arrival at its due time into a bounded queue; a fixed set
// of workers (the benchmark's "connections") applies them. Every
// operation is timed from its due time, so a stall shows up in the
// latency of the operations queued behind it, and when the queue is full
// the generator itself falls behind, which lag (issue time minus due
// time) reports.

// openLoopConfig describes one schedule.
type openLoopConfig struct {
	rate    float64 // arrivals per wall second
	n       int     // arrivals in the schedule
	workers int
	// queue bounds how many issued arrivals may wait for a worker.
	queue int
	// before, when set, runs on the generator goroutine just before
	// arrival i is issued (phase marks, sweep triggers).
	before func(i int, due time.Duration)
	// start is the schedule's origin; zero means when runOpenLoop starts.
	start time.Time
}

// opTiming holds one arrival's instants, as offsets from the schedule
// start.
type opTiming struct {
	due, issued, start, end time.Duration
}

func (t opTiming) latency() time.Duration   { return t.end - t.due }
func (t opTiming) lag() time.Duration       { return t.issued - t.due }
func (t opTiming) queueWait() time.Duration { return t.start - t.due }
func (t opTiming) service() time.Duration   { return t.end - t.start }

// dueAt is arrival i's offset from the schedule start.
func dueAt(i int, rate float64) time.Duration {
	return time.Duration(float64(i) * float64(time.Second) / rate)
}

// runOpenLoop drives the schedule: do(worker, i) applies arrival i on the
// given worker. It returns once every arrival has been applied and every
// worker has exited.
func runOpenLoop(cfg openLoopConfig, do func(worker, i int)) []opTiming {
	timings := make([]opTiming, cfg.n)
	jobs := make(chan int, cfg.queue)
	var wg sync.WaitGroup
	start := cfg.start
	if start.IsZero() {
		start = time.Now()
	}
	for w := 0; w < cfg.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range jobs {
				timings[i].start = time.Since(start)
				do(w, i)
				timings[i].end = time.Since(start)
			}
		}(w)
	}
	for i := 0; i < cfg.n; i++ {
		due := dueAt(i, cfg.rate)
		timings[i].due = due
		if cfg.before != nil {
			cfg.before(i, due)
		}
		if wait := due - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		jobs <- i
		timings[i].issued = time.Since(start)
	}
	close(jobs)
	wg.Wait()
	return timings
}

// latencySet projects a field of each timing into a duration slice, in
// schedule order.
func latencySet(t []opTiming, f func(opTiming) time.Duration) []time.Duration {
	out := make([]time.Duration, len(t))
	for i, x := range t {
		out[i] = f(x)
	}
	return out
}
