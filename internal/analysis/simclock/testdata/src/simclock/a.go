// Package simclock is golden testdata for the determinism checker: the
// package path is not on the exempt list, so it counts as simulation
// code.
package simclock

import "time"

// Clock is an injected clock. Its Sleep method shares a name with
// time.Sleep, which the checker must not flag.
type Clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

var epoch = time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC)

// Ambient-clock reads and waits are forbidden.
func bad() time.Duration {
	time.Sleep(time.Millisecond) // want `time\.Sleep in simulation package`
	start := time.Now()          // want `time\.Now in simulation package`
	<-time.After(time.Second)    // want `time\.After in simulation package`
	return time.Since(start)     // want `time\.Since in simulation package`
}

// Injected clocks and pure time functions are fine.
func good(c Clock) time.Time {
	c.Sleep(5 * time.Millisecond) // clean: injected clock
	d := 90 * time.Minute         // clean: duration math
	t, _ := time.Parse("2006-01-02", "2017-06-01")
	if t.After(epoch) { // clean: time.Time.After method, not time.After
		t = t.Add(d)
	}
	return c.Now() // clean: injected clock
}

// Inline suppression for a sanctioned real-time read.
func wallClock() time.Time {
	return time.Now() //collusionvet:allow simclock -- process-startup anchor
}
