//go:build !race

package repro

// raceEnabled: see race_test.go.
const raceEnabled = false
