// Package fmsa implements the state-of-the-art baseline, Function
// Merging by Sequence Alignment (Rocha et al., CGO 2019), following the
// workflow of the paper's Figure 1: register demotion (Reg2Mem) over
// every candidate function, linearization and alignment of the phi-free
// bodies, sequence-driven code generation, then register promotion
// (Mem2Reg) and simplification as clean-up.
//
// The code generator is shared with package core (on phi-free inputs the
// CFG-driven generator degenerates to FMSA's sequence-driven behaviour);
// what defines FMSA is the demotion requirement and the absence of the
// SSA-specific optimisations (phi-node coalescing, xor-branch). Its
// signature pathology emerges naturally: merged loads/stores whose slots
// differ receive an address select, the slot's address therefore escapes,
// and register promotion cannot remove it (paper §3).
package fmsa

import (
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/transform"
)

// Options returns the generator configuration FMSA uses: no phi-node
// coalescing, no xor-branch rewrite (commutative operand reordering is
// kept — the CGO'19 prototype exploits commutativity).
func Options() core.Options {
	opts := core.DefaultOptions()
	opts.PhiCoalescing = false
	opts.XorBranch = false
	return opts
}

// PrepareModule demotes every defined function in m (register demotion,
// FMSA's mandatory preprocessing); FMSA cannot attempt any merge without
// this, which is what leaves residue on unmerged functions.
func PrepareModule(m *ir.Module) {
	for _, f := range m.Defined() {
		transform.RegToMem(f)
	}
}

// Cleanup promotes and simplifies f after merging (Figure 1's Mem2Reg +
// Simplification stages).
func Cleanup(f *ir.Function) {
	transform.Mem2Reg(f)
	transform.Simplify(f)
}

// CleanupModule runs Cleanup over every defined function.
func CleanupModule(m *ir.Module) {
	for _, f := range m.Defined() {
		Cleanup(f)
	}
}

// MergePair merges two already-demoted functions with the FMSA
// configuration and cleans the result. The caller removes the returned
// function from m to roll back.
func MergePair(m *ir.Module, f1, f2 *ir.Function, name string) (*ir.Function, *core.Stats, error) {
	merged, stats, err := core.Merge(m, f1, f2, name, Options())
	if err != nil {
		return nil, nil, err
	}
	Cleanup(merged)
	return merged, stats, nil
}
