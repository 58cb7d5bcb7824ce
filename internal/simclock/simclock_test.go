package simclock

import (
	"sync"
	"testing"
	"time"
)

var epoch = time.Date(2015, time.November, 1, 0, 0, 0, 0, time.UTC)

func TestSimulatedNow(t *testing.T) {
	c := NewSimulated(epoch)
	if got := c.Now(); !got.Equal(epoch) {
		t.Fatalf("Now() = %v, want %v", got, epoch)
	}
	c.Advance(time.Hour)
	if got := c.Now(); !got.Equal(epoch.Add(time.Hour)) {
		t.Fatalf("Now() after advance = %v, want %v", got, epoch.Add(time.Hour))
	}
}

func TestSimulatedAdvanceTo(t *testing.T) {
	c := NewSimulated(epoch)
	target := epoch.Add(48 * time.Hour)
	c.AdvanceTo(target)
	if got := c.Now(); !got.Equal(target) {
		t.Fatalf("Now() = %v, want %v", got, target)
	}
	// Moving backwards must be a no-op.
	c.AdvanceTo(epoch)
	if got := c.Now(); !got.Equal(target) {
		t.Fatalf("Now() after backwards AdvanceTo = %v, want %v", got, target)
	}
}

func TestSimulatedAfterFiresAtDeadline(t *testing.T) {
	c := NewSimulated(epoch)
	ch := c.After(10 * time.Minute)
	select {
	case <-ch:
		t.Fatal("After fired before the clock advanced")
	default:
	}
	c.Advance(9 * time.Minute)
	select {
	case <-ch:
		t.Fatal("After fired before its deadline")
	default:
	}
	c.Advance(time.Minute)
	select {
	case got := <-ch:
		want := epoch.Add(10 * time.Minute)
		if !got.Equal(want) {
			t.Fatalf("After delivered %v, want %v", got, want)
		}
	default:
		t.Fatal("After did not fire at its deadline")
	}
}

func TestSimulatedAfterZeroFiresImmediately(t *testing.T) {
	c := NewSimulated(epoch)
	select {
	case got := <-c.After(0):
		if !got.Equal(epoch) {
			t.Fatalf("After(0) delivered %v, want %v", got, epoch)
		}
	default:
		t.Fatal("After(0) did not fire immediately")
	}
}

func TestSimulatedMultipleWaitersFireAtOwnDeadlines(t *testing.T) {
	c := NewSimulated(epoch)
	durations := []time.Duration{3 * time.Hour, time.Hour, 2 * time.Hour}
	chans := make([]<-chan time.Time, len(durations))
	for i, d := range durations {
		chans[i] = c.After(d)
	}
	c.Advance(3 * time.Hour)
	for i, d := range durations {
		select {
		case got := <-chans[i]:
			want := epoch.Add(d)
			if !got.Equal(want) {
				t.Fatalf("waiter %d delivered %v, want %v", i, got, want)
			}
		default:
			t.Fatalf("waiter %d did not fire", i)
		}
	}
}

func TestSimulatedSleepUnblocks(t *testing.T) {
	c := NewSimulated(epoch)
	done := make(chan struct{})
	go func() {
		c.Sleep(time.Hour)
		close(done)
	}()
	// Wait until the sleeper has registered.
	for c.PendingWaiters() == 0 {
		time.Sleep(time.Millisecond)
	}
	c.Advance(time.Hour)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Sleep did not unblock after the clock advanced")
	}
}

func TestSimulatedPendingWaiters(t *testing.T) {
	c := NewSimulated(epoch)
	_ = c.After(time.Hour)
	_ = c.After(2 * time.Hour)
	if got := c.PendingWaiters(); got != 2 {
		t.Fatalf("PendingWaiters = %d, want 2", got)
	}
	c.Advance(time.Hour)
	if got := c.PendingWaiters(); got != 1 {
		t.Fatalf("PendingWaiters after advance = %d, want 1", got)
	}
}

func TestSimulatedNegativeAdvancePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Advance(-1) did not panic")
		}
	}()
	NewSimulated(epoch).Advance(-time.Second)
}

func TestRealClockBasics(t *testing.T) {
	c := Real{}
	before := time.Now()
	got := c.Now()
	after := time.Now()
	if got.Before(before) || got.After(after) {
		t.Fatalf("Real.Now() = %v outside [%v, %v]", got, before, after)
	}
	start := time.Now()
	c.Sleep(time.Millisecond)
	if elapsed := time.Since(start); elapsed < time.Millisecond {
		t.Fatalf("Real.Sleep returned after %v, want >= 1ms", elapsed)
	}
}

func TestSimulatedConcurrentAdvance(t *testing.T) {
	c := NewSimulated(epoch)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c.Advance(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	want := epoch.Add(800 * time.Millisecond)
	if got := c.Now(); !got.Equal(want) {
		t.Fatalf("Now() = %v, want %v", got, want)
	}
}
