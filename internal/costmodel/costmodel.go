// Package costmodel estimates the final object-code size of IR and
// decides merge profitability. The paper measures linked-object size
// after the LLVM back end; here IR is lowered to per-opcode byte
// estimates for two targets (x86-64 and ARM Thumb), which preserves the
// quantity function merging optimises — the number and kind of
// instructions that survive to the binary.
package costmodel

import (
	"repro/internal/core"
	"repro/internal/ir"
)

// Target selects the byte-cost table used for size estimation.
type Target int

// Supported size-estimation targets.
const (
	// X86_64 models the SPEC CPU experiments (variable-length encoding,
	// ~4 bytes per simple ALU op including operand bytes).
	X86_64 Target = iota
	// Thumb models the MiBench experiments (2-byte narrow encodings for
	// common ops, 4-byte wide forms).
	Thumb
)

// String returns the target name.
func (t Target) String() string {
	if t == Thumb {
		return "thumb"
	}
	return "x86-64"
}

// x86-64 byte costs InstrBytes shares with ForcedBytes: what one
// branch, one conditional branch (cmp/test fused + jcc) and one select
// (cmov / it-block) are charged.
const (
	brCost     = 2
	condBrCost = 4
	selectCost = 4
)

// narrow converts an x86-64 byte cost to the target's: Thumb's narrow
// encodings halve it, rounding up.
func narrow(n int, target Target) int {
	if target == Thumb {
		return (n + 1) / 2
	}
	return n
}

// InstrBytes estimates the object-code bytes contributed by one
// instruction on the target. Phi-nodes are free (they become register
// copies that the allocator mostly coalesces; a small cost is charged to
// model the copies that remain). Allocas are frame bookkeeping (free at
// this granularity); their cost is paid by the loads/stores.
func InstrBytes(in *ir.Instruction, target Target) int {
	x86 := func(n int) int { return narrow(n, target) }
	switch in.Op() {
	case ir.OpPhi:
		// Phis lower to register copies in predecessors; the allocator
		// coalesces many but not all (about one mov survives on average).
		return x86(2)
	case ir.OpAlloca:
		return 0
	case ir.OpRet:
		return x86(2)
	case ir.OpBr:
		if in.IsCondBr() {
			return x86(condBrCost)
		}
		return x86(brCost)
	case ir.OpSwitch:
		return SwitchBytes(target, len(in.SwitchCases()))
	case ir.OpUnreachable:
		return x86(1)
	case ir.OpCall:
		return x86(5 + len(in.Args()))
	case ir.OpInvoke:
		return x86(5+len(in.Args())) + x86(4) // call + unwind table slice
	case ir.OpLandingPad:
		return x86(4)
	case ir.OpResume:
		return x86(4)
	case ir.OpLoad, ir.OpStore:
		return x86(4)
	case ir.OpGEP:
		// Often folds into addressing modes; charge per extra index.
		return x86(1 + 2*(in.NumOperands()-1))
	case ir.OpICmp, ir.OpFCmp:
		return x86(3)
	case ir.OpSelect:
		return x86(selectCost)
	case ir.OpSDiv, ir.OpUDiv, ir.OpSRem, ir.OpURem:
		return x86(6)
	case ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFDiv:
		return x86(5)
	default:
		if in.Op().IsCast() {
			return x86(3)
		}
		return x86(4) // integer ALU
	}
}

// ForcedBytes prices what core.CountForced counted: selects, the
// conditional branches on the function identifier that chain dispatch
// and label selection emit, unconditional branches that became
// conditional ones, and the branches that rejoin diverged members.
func ForcedBytes(n core.Forced, target Target) int {
	br, condBr := narrow(brCost, target), narrow(condBrCost, target)
	return n.Selects*narrow(selectCost, target) +
		(n.FidBranches+n.LabelSelections)*condBr +
		n.BranchUpgrades*(condBr-br) +
		n.Rejoins*br
}

// FuncBytes estimates the object-code size of a function body plus its
// fixed prologue/epilogue and symbol overhead.
func FuncBytes(f *ir.Function, target Target) int {
	if f.IsDecl() {
		return 0
	}
	overhead := 8 // prologue/epilogue, alignment padding
	if target == Thumb {
		overhead = 4
	}
	n := overhead
	for _, b := range f.Blocks {
		for _, in := range b.Instrs() {
			n += InstrBytes(in, target)
		}
	}
	return n
}

// ModuleBytes estimates the linked-object size of a module: the sum of
// its function bodies (this is the portion function merging can affect;
// data and relocation overheads are invariant and excluded).
func ModuleBytes(m *ir.Module, target Target) int {
	n := 0
	for _, f := range m.Funcs {
		n += FuncBytes(f, target)
	}
	return n
}

// FuncSize is the IR-level size measure used by the paper's Figure 5 and
// Table 1: the number of IR instructions.
func FuncSize(f *ir.Function) int { return f.NumInstrs() }

// MergeCost summarises the profitability comparison for a candidate
// merge operation.
type MergeCost struct {
	// Before is the estimated size of the two original functions.
	Before int
	// After is the estimated size of the merged function plus the thunks
	// that replace the originals.
	After int
}

// Profit returns Before - After (positive when merging shrinks code).
func (c MergeCost) Profit() int { return c.Before - c.After }

// Profitable applies the cost model's acceptance test. The paper's
// prototype requires a strictly positive saving; like it, the model is
// deliberately local (later passes can still change the outcome, which
// is the source of the false positives discussed around Figure 19).
func (c MergeCost) Profitable() bool { return c.Profit() > 0 }

// EvaluateMerge computes the cost comparison for replacing f1 and f2 by
// merged plus per-function thunks.
func EvaluateMerge(f1, f2, merged *ir.Function, target Target, thunkBytes int) MergeCost {
	return MergeCost{
		Before: FuncBytes(f1, target) + FuncBytes(f2, target),
		After:  FuncBytes(merged, target) + 2*thunkBytes,
	}
}

// SwitchBytes estimates the object-code bytes of a switch dispatch with
// the given case count: a compare-and-branch chain or table, charged per
// case plus base. It is the single switch-pricing rule, shared between
// InstrBytes' OpSwitch lowering and the family label-selection costing
// (the switch-on-fid blocks the k-ary generator emits are real OpSwitch
// instructions, so both paths price them identically by construction).
func SwitchBytes(target Target, cases int) int {
	n := 4 + 4*cases
	if target == Thumb {
		n = (n + 1) / 2
	}
	return n
}

// ThunkBytes is the estimated size of a forwarding thunk into a merged
// function: materialize the function identifier, forward the arguments
// (numArgs counts the merged function's parameters, identifier
// included), tail-call. The identifier is a real argument on every
// thunk — an immediate move the register-forwarding estimate used to
// ignore — so it is charged explicitly on top of its argument slot.
func ThunkBytes(target Target, numArgs int) int {
	n := 8 + numArgs + 2
	if target == Thumb {
		n = 4 + (numArgs+1)/2 + 1
	}
	return n
}

// ForwarderBytes is the estimated size of a plain forwarder (forward
// the arguments unchanged, tail-call a same-signature function): a
// thunk without an identifier to materialize. Duplicate folding prices
// its forwarders with this.
func ForwarderBytes(target Target, numArgs int) int {
	n := 8 + numArgs
	if target == Thumb {
		n = 4 + (numArgs+1)/2
	}
	return n
}
