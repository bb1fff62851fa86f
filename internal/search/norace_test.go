//go:build !race

package search

// raceEnabled reports whether the race detector is on (see race_test.go).
const raceEnabled = false
