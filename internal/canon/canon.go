// Package canon computes immutable canonical views of functions: a
// private clone of the body run through mem2reg, CFG simplification,
// constant folding, operand normalization and GVN redundancy
// elimination. The merging pipeline does not use it — it ranks and folds
// over the original bodies; the benchmark's layer replay times Build as
// a representative composition of the transform passes.
package canon

import (
	"repro/internal/ir"
	"repro/internal/transform"
)

// Config selects the passes a canonical view is built with; the zero
// value selects none, and Default returns the full pipeline.
type Config struct {
	// Mem2Reg promotes allocas to SSA registers on the view, folding
	// away redundant load/store traffic.
	Mem2Reg bool
	// Simplify runs CFG simplification and constant folding on the
	// view: dead/empty block removal, straight-line block merging,
	// terminator folding, instruction folding, DCE.
	Simplify bool
	// Normalize orders commutative operands, canonicalizes comparison
	// predicates and sorts phi incomings deterministically.
	Normalize bool
	// GVN runs optimistic value numbering over the view and replaces
	// every instruction congruent to a dominating leader with that
	// leader, erasing the redundant computation.
	GVN bool
}

// Default is the full canonicalization pipeline.
func Default() Config {
	return Config{Mem2Reg: true, Simplify: true, Normalize: true, GVN: true}
}

// maxRounds bounds the Normalize/GVN fixpoint: each round can enable the
// next (a GVN replacement changes def order, re-enabling commutative
// swaps; folding re-enables both), but the chain is short in practice.
const maxRounds = 8

// Build computes the canonical view of f under cfg: a detached private
// clone of the body (sharing f's name, so structural hashes of mutually
// recursive clone pairs still collide through the self tag) run through
// the configured passes. The original is never touched; the returned
// function is not part of any module and must never be committed — it
// exists only to be inspected.
func Build(f *ir.Function, cfg Config) *ir.Function {
	view, _ := ir.CloneFunction(f, f.Name())
	// CloneFunction remaps params, blocks and instruction results but
	// not references to the enclosing function itself: a recursive call
	// in the clone still targets f. Redirect those to the view so its
	// structural hash sees them as self-references, exactly as the
	// original's hash does.
	self := ir.Value(f)
	for _, b := range view.Blocks {
		for _, in := range b.Instrs() {
			for i := 0; i < in.NumOperands(); i++ {
				if in.Operand(i) == self {
					in.SetOperand(i, view)
				}
			}
		}
	}
	if cfg.Mem2Reg {
		transform.Mem2Reg(view)
	}
	if cfg.Simplify {
		transform.Simplify(view)
	}
	if cfg.Normalize || cfg.GVN {
		for round := 0; round < maxRounds; round++ {
			changed := 0
			if cfg.Normalize {
				changed += Normalize(view)
			}
			if cfg.GVN {
				changed += Reduce(view)
			}
			if changed == 0 {
				break
			}
			if cfg.Simplify {
				transform.Simplify(view)
			}
		}
	}
	return view
}
