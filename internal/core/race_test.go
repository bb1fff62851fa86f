//go:build race

package core

// raceEnabled reports whether the race detector is on. It drops pooled
// objects at random, so an allocation count taken under it runs higher.
const raceEnabled = true
