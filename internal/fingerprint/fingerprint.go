// Package fingerprint implements the summary both FMSA and SalSSA rank
// merge candidates by (paper §5.1): each function is summarised by an
// opcode-frequency fingerprint, and for every function the t most
// similar other functions are tried, where t is the exploration
// threshold. The ranking itself is package search's Index.
package fingerprint

import "repro/internal/ir"

// Fingerprint is an opcode-frequency vector plus light shape data. The
// distance between fingerprints lower-bounds how much of the functions
// cannot match under alignment, so ranking by it orders candidates by
// merge potential.
type Fingerprint struct {
	// OpCount[op] is the number of instructions with that opcode.
	OpCount [64]int32
	// Blocks is the number of basic blocks (labels align with labels).
	Blocks int32
	// Size is the total instruction count.
	Size int32
}

// New computes the fingerprint of f.
func New(f *ir.Function) *Fingerprint {
	fp := &Fingerprint{Blocks: int32(len(f.Blocks))}
	f.Instrs(func(in *ir.Instruction) bool {
		fp.OpCount[int(in.Op())]++
		fp.Size++
		return true
	})
	return fp
}

// Distance is the Manhattan distance between opcode vectors plus the
// block-count difference. Smaller means more similar; 0 does not imply
// the functions are mergeable, only that their opcode multisets agree.
func Distance(a, b *Fingerprint) int32 {
	var d int32
	for i := range a.OpCount {
		d += abs32(a.OpCount[i] - b.OpCount[i])
	}
	return d + abs32(a.Blocks-b.Blocks)
}

// DistanceWithin is Distance with an early exit: the exact distance
// when it is <= limit, or the first partial sum that exceeds limit.
// Top-t scans use it to reject candidates that cannot enter a bounded
// result set without paying for the full opcode sweep — any return
// value > limit means Distance(a, b) > limit too, which is all the
// caller needs.
func DistanceWithin(a, b *Fingerprint, limit int32) int32 {
	var d int32
	for i := range a.OpCount {
		if d += abs32(a.OpCount[i] - b.OpCount[i]); d > limit {
			return d
		}
	}
	return d + abs32(a.Blocks-b.Blocks)
}

func abs32(x int32) int32 {
	if x < 0 {
		return -x
	}
	return x
}
