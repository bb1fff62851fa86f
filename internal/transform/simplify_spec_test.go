package transform

// The specification Simplify and FoldFixpoint are held to: their round
// loops as they were before edit stamps, kept verbatim, run with the due
// filter off (everyBlock), so that every pass sweeps every block, every
// pass's own loop sweeps again after any change, and every round loop
// stops only after a round that changes nothing.

import (
	"repro/internal/analysis"
	"repro/internal/ir"
)

// simplifySpec is Simplify as a whole-function round loop.
func simplifySpec(f *ir.Function) int {
	defer sweepEveryBlock()()
	if f.IsDecl() {
		return 0
	}
	total := 0
	// dt is a dominator tree of f's current CFG, nil once a pass has
	// rewritten a terminator or the block list; a round that leaves the
	// CFG alone hands its tree to the next.
	var dt *analysis.DomTree
	cfgPass := func(changes int) int {
		if changes > 0 {
			dt = nil
		}
		return changes
	}
	for {
		n := FoldInstructions(f)
		n += cfgPass(FoldTerminators(f))
		if dt == nil {
			dt = analysis.NewDomTree(f)
		}
		if dead := RemoveUnreachable(f, dt); dead > 0 {
			n += dead
			dt = analysis.NewDomTree(f)
			// Phis in blocks that just lost predecessors may now be trivial.
			RemoveTrivialPhis(f, dt)
		}
		n += foldSinglePredPhis(f)
		n += RemoveTrivialPhis(f, dt)
		n += RemoveDuplicatePhis(f)
		n += cfgPass(MergeStraightLineBlocks(f))
		n += cfgPass(ForwardEmptyBlocks(f))
		n += DCE(f)
		total += n
		if n == 0 {
			return total
		}
	}
}

// foldFixpointSpec is FoldFixpoint as a whole-function round loop (what
// SSA repair's promoteAndFold ran).
func foldFixpointSpec(f *ir.Function, dt *analysis.DomTree) int {
	defer sweepEveryBlock()()
	total := 0
	for {
		n := RemoveDuplicatePhis(f)
		n += FoldInstructions(f)
		n += RemoveTrivialPhis(f, dt)
		total += n
		if n == 0 {
			return total
		}
	}
}

// sweepEveryBlock turns the due filter off until the function it returns
// is called.
func sweepEveryBlock() func() {
	everyBlock = true
	return func() { everyBlock = false }
}
