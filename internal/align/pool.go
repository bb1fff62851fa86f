package align

// Pooled kernel scratch. The bit rows, match masks, class-slot table and
// prefix widths of an alignment are recycled across trials, and across
// sessions running side by side (sync.Pool is concurrency-safe and
// per-P sharded), rather than garbaged per candidate pair. Nothing
// pooled points into the IR, and every buffer grows to the largest
// request it has served.
//
// Pooling does not touch the MatrixBytes accounting: Result.MatrixBytes
// reports the paper's footprint, (n+1)(m+1) cells x 5 bytes — what
// Figure 22 measures and MaxCells caps — not the kernel's (n+1) bit rows
// of ⌈m′/64⌉ words. See DESIGN.md "Alignment performance".

import "sync"

var kernelPool sync.Pool

// getKernel returns pooled kernel scratch; every buffer grows on use.
func getKernel() *kernel {
	k, _ := kernelPool.Get().(*kernel)
	if k == nil {
		k = &kernel{}
	}
	return k
}

// release zeroes the slot table entries b's classes set and returns k to
// the pool.
func (k *kernel) release(cb []int32) {
	for _, c := range cb {
		if c >= 0 {
			k.slot[c] = 0
		}
	}
	kernelPool.Put(k)
}

// grow returns s resliced to n elements, reallocated to exactly n when
// its capacity falls short: a run's requests reallocate only at each new
// maximum, and the largest, the bit rows of its biggest pair, carries no
// headroom. Contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
