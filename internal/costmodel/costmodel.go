// Package costmodel estimates the final object-code size of IR and
// prices merges. The paper measures linked-object size after the LLVM
// back end; here IR is lowered to per-opcode byte estimates for two
// targets (x86-64 and ARM Thumb), which preserves the quantity function
// merging optimises — the number and kind of instructions that survive
// to the binary.
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

// x86-64 byte costs InstrBytes shares with ForcedBytes and ThunkBytes:
// what one branch, one conditional branch (cmp/test fused + jcc), one
// select (cmov / it-block) and one return are charged.
const (
	brCost     = 2
	condBrCost = 4
	selectCost = 4
	retCost    = 2
)

// narrow converts an x86-64 byte cost to the target's: Thumb's narrow
// encodings halve it, rounding up.
func narrow(n int, target Target) int {
	if target == Thumb {
		return (n + 1) / 2
	}
	return n
}

// callBytes is the call rule InstrBytes and ThunkBytes share: the call
// itself plus a byte per argument moved into place.
func callBytes(numArgs int, target Target) int {
	return narrow(5+numArgs, target)
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
		return x86(retCost)
	case ir.OpBr:
		if in.IsCondBr() {
			return x86(condBrCost)
		}
		return x86(brCost)
	case ir.OpSwitch:
		return SwitchBytes(target, in.NumSwitchCases())
	case ir.OpUnreachable:
		return x86(1)
	case ir.OpCall:
		return callBytes(len(in.Args()), target)
	case ir.OpInvoke:
		return callBytes(len(in.Args()), target) + x86(4) // call + unwind table slice
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

// funcOverhead is the fixed prologue/epilogue and alignment padding
// FuncBytes charges per defined function.
func funcOverhead(target Target) int {
	if target == Thumb {
		return 4
	}
	return 8
}

// FuncBytes estimates the object-code size of a function body plus its
// fixed prologue/epilogue and symbol overhead.
func FuncBytes(f *ir.Function, target Target) int {
	if f.IsDecl() {
		return 0
	}
	n := funcOverhead(target)
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

// SwitchBytes estimates the object-code bytes of a switch dispatch with
// the given case count: a compare-and-branch chain or table, charged per
// case plus base. It is the single switch-pricing rule, shared between
// InstrBytes' OpSwitch lowering and the family label-selection costing
// (the switch-on-fid blocks the k-ary generator emits are real OpSwitch
// instructions, so both paths price them identically by construction).
func SwitchBytes(target Target, cases int) int {
	return narrow(4+4*cases, target)
}

// ThunkBytes is the size of a forwarding body: one block holding a call
// with numArgs arguments and a return, priced by the rules FuncBytes
// measures it with. Merge thunks (core.BuildThunk; numArgs counts the
// merged function's parameters, identifier included) and duplicate-fold
// forwarders are both such bodies (ir.BuildForwarder), so a merge or
// fold priced with it changes ModuleBytes by exactly its profit.
func ThunkBytes(target Target, numArgs int) int {
	return funcOverhead(target) + callBytes(numArgs, target) + narrow(retCost, target)
}
