//go:build race

package repro

// raceEnabled reports whether the tests run under the race detector, which
// makes sync.Pool drop a random share of Puts: allocation counts through
// pooled buffers (net/http's included) do not repeat there.
const raceEnabled = true
