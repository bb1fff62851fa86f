package align

// Pooled DP storage. Alignment scratch — the banded kernel's prefix sums,
// row intervals, score rows and direction bytes — is recycled across
// trials, and across sessions running side by side (sync.Pool is
// concurrency-safe and per-P sharded), rather than garbaged per candidate
// pair. Nothing pooled points into the IR, and every buffer grows to the
// largest request it has served.
//
// Pooling does not touch the MatrixBytes accounting: Result.MatrixBytes
// reports the paper's footprint, (n+1)(m+1) cells x 5 bytes — what
// Figure 22 measures and MaxCells caps — not what the kernel holds. See
// DESIGN.md "Alignment performance" for how the two relate.

import "sync"

var bandPool sync.Pool

// getBand returns kernel scratch sized for an n x m alignment; dir and
// cnt grow on use.
func getBand(n, m int) *band {
	s, _ := bandPool.Get().(*band)
	if s == nil {
		s = &band{}
	}
	s.pa, s.rows = grow(s.pa, n+1), grow(s.rows, n+1)
	s.pb, s.prev, s.cur = grow(s.pb, m+1), grow(s.prev, m+1), grow(s.cur, m+1)
	return s
}

// grow returns s resliced to n elements, reallocated with a quarter of
// headroom when its capacity falls short. Contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, n+n/4)
	}
	return s[:n]
}
