//go:build race

package search

// raceEnabled reports whether the race detector is on. Its
// instrumentation changes what escapes, so allocation counts taken
// under it mean nothing.
const raceEnabled = true
