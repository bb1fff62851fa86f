package align

// Pooled DP storage. Alignment scratch — the banded kernel's prefix sums,
// row intervals, score rows and direction bytes, and Hirschberg's row
// buffers — is recycled across trials, and across sessions running side
// by side (sync.Pool is concurrency-safe and per-P sharded), rather than
// garbaged per candidate pair. Nothing pooled points into the IR, and
// every buffer grows to the largest request it has served.
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

// dpRow is one pooled Hirschberg row buffer. The indirection through a
// struct keeps Get/Put allocation-free (a bare slice would escape into
// the pool's interface value on every Put).
type dpRow struct{ row []int32 }

var rowPool sync.Pool

// getRow returns a row buffer with len(row) == n. Element 0 is zeroed —
// the one element Hirschberg's row initialisation reads without writing
// first.
func getRow(n int) *dpRow {
	r, _ := rowPool.Get().(*dpRow)
	if r == nil {
		r = &dpRow{}
	}
	r.row = grow(r.row, n)
	r.row[0] = 0
	return r
}

// putRow recycles a row buffer obtained from getRow.
func putRow(r *dpRow) { rowPool.Put(r) }
