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
	<-c.After(time.Millisecond)
	if elapsed := time.Since(start); elapsed < time.Millisecond {
		t.Fatalf("Real.After fired after %v, want >= 1ms", elapsed)
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
