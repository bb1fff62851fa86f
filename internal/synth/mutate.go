package synth

import (
	"math/rand"

	"repro/internal/ir"
)

// mutate applies seeded edits to a cloned template so family members are
// similar-but-not-identical, modelling template instantiations and
// copy-paste divergence. rate is roughly the per-instruction probability
// of an edit.
func mutate(rng *rand.Rand, f *ir.Function, lib [][]*ir.Function, rate float64) {
	if rate <= 0 {
		return
	}
	n := f.NumInstrs()
	edits := 0
	for i := 0; i < n; i++ {
		if rng.Float64() < rate {
			edits++
		}
	}
	if edits == 0 {
		return
	}
	// Every edit re-lists the instructions (edits insert and erase them);
	// the list's storage is shared, or a 4,000-instruction clone garbages
	// its own length in pointers per edit.
	instrs := make([]*ir.Instruction, 0, n+edits)
	for e := 0; e < edits; e++ {
		applyOneMutation(rng, f, lib, instrs)
	}
}

func applyOneMutation(rng *rand.Rand, f *ir.Function, lib [][]*ir.Function, instrs []*ir.Instruction) {
	f.Instrs(func(in *ir.Instruction) bool {
		instrs = append(instrs, in)
		return true
	})
	if len(instrs) == 0 {
		return
	}
	for attempt := 0; attempt < 8; attempt++ {
		in := instrs[rng.Intn(len(instrs))]
		// Loop infrastructure (counter increment and bound comparison,
		// named by the builder) must stay intact so every generated
		// program terminates; mutating it could produce unbounded loops.
		if n := in.Name(); n == "lc" || n == "inc" {
			continue
		}
		switch rng.Intn(6) {
		case 0: // tweak an integer constant (not a switch case / gep index)
			if in.Op() == ir.OpSwitch || in.Op() == ir.OpGEP {
				continue
			}
			for i := 0; i < in.NumOperands(); i++ {
				if c, ok := in.Operand(i).(*ir.ConstInt); ok {
					delta := int64(1 + rng.Intn(7))
					in.SetOperand(i, ir.NewConstInt(c.Type().(*ir.IntType), c.V+delta))
					return
				}
			}
		case 1: // swap the callee for another with the same signature
			if in.Op() != ir.OpCall && in.Op() != ir.OpInvoke {
				continue
			}
			callee, ok := in.Callee().(*ir.Function)
			if !ok || !callee.IsDecl() {
				continue
			}
			for _, group := range lib {
				for _, g := range group {
					if g == callee {
						repl := group[rng.Intn(len(group))]
						in.SetOperand(0, repl)
						return
					}
				}
			}
		case 2: // change the opcode of an integer binary operation
			if !in.Op().IsBinary() || !ir.IsInt(in.Type()) {
				continue
			}
			swapInstrOpcode(in, rng)
			return
		case 3: // flip a comparison predicate
			if in.Op() != ir.OpICmp {
				continue
			}
			preds := []ir.CmpPred{ir.PredSLT, ir.PredSLE, ir.PredSGT, ir.PredSGE, ir.PredEQ, ir.PredNE}
			in.Pred = preds[rng.Intn(len(preds))]
			return
		case 4:
			// Insert a new cross-block value: defined at the end of the
			// entry block, consumed by a later instruction. This is the
			// divergence that hurts demotion-based merging most — the new
			// value gets its own stack slot, shifting the slot pairing of
			// everything behind it (the paper's Figure 4 pathology).
			if insertCrossBlockDef(rng, f, in) {
				return
			}
		case 5: // bypass-delete a pure binary instruction
			if !in.Op().IsBinary() || !ir.TypesEqual(in.Type(), in.Operand(0).Type()) {
				continue
			}
			blk := in.Parent()
			ir.ReplaceAllUsesWith(in, in.Operand(0))
			blk.Erase(in)
			return
		}
	}
}

// insertCrossBlockDef adds "v = op(x, c)" at the end of the entry block
// and rewires one i32 operand of target (in a later block) to v.
// Returns false when target has no rewritable operand.
func insertCrossBlockDef(rng *rand.Rand, f *ir.Function, target *ir.Instruction) bool {
	if target.Parent() == f.Entry() || target.Op() == ir.OpLandingPad {
		return false
	}
	idx := -1
	for i := 0; i < target.NumOperands(); i++ {
		if !ir.TypesEqual(target.Operand(i).Type(), ir.I32) {
			continue
		}
		// Operands that must remain constants or callees are off limits.
		if target.Op() == ir.OpGEP || (i == 0 && (target.Op() == ir.OpCall || target.Op() == ir.OpInvoke)) {
			continue
		}
		if target.Op() == ir.OpSwitch && i != 0 {
			continue
		}
		idx = i
		break
	}
	if idx < 0 {
		return false
	}
	var x ir.Value = ir.NewConstInt(ir.I32, int64(rng.Intn(32)))
	for _, p := range f.Params() {
		if ir.TypesEqual(p.Type(), ir.I32) {
			x = p
			break
		}
	}
	ops := []ir.Opcode{ir.OpAdd, ir.OpXor, ir.OpMul}
	v := ir.NewBinary(ops[rng.Intn(len(ops))], "mx", x, ir.NewConstInt(ir.I32, int64(1+rng.Intn(15))))
	entry := f.Entry()
	entry.InsertBefore(v, entry.Term())
	target.SetOperand(idx, v)
	return true
}

// swapInstrOpcode changes a binary integer opcode in place. The
// Instruction type has no opcode setter by design, so the instruction is
// replaced.
func swapInstrOpcode(in *ir.Instruction, rng *rand.Rand) {
	candidates := []ir.Opcode{ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpAnd, ir.OpOr, ir.OpXor}
	op := candidates[rng.Intn(len(candidates))]
	if op == in.Op() {
		op = ir.OpXor
		if in.Op() == ir.OpXor {
			op = ir.OpAdd
		}
	}
	repl := ir.NewBinary(op, in.Name(), in.Operand(0), in.Operand(1))
	blk := in.Parent()
	blk.InsertBefore(repl, in)
	ir.ReplaceAllUsesWith(in, repl)
	blk.Erase(in)
}
