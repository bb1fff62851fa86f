package canon

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/ir"
)

// Reduce runs optimistic global value numbering over f (a private view)
// and erases every pure instruction congruent to a dominating leader,
// redirecting its uses to the leader. Congruence is computed by
// partition refinement in the Alpern–Wegman–Zadeck style: all pure
// instructions with the same shape start congruent, and classes split
// until operand classes agree everywhere — the greatest fixed point, so
// mutually-recursive phi webs (twin loop counters) are detected. Phis
// are only congruent to phis of the same block (the classic soundness
// restriction: identical incomings in different blocks may select
// different paths). Loads are never value-numbered — they carry side
// effects in this IR. Returns the number of instructions erased.
func Reduce(f *ir.Function) int {
	dt := analysis.NewDomTree(f)
	rpo := dt.RPO()
	if len(rpo) == 0 {
		return 0
	}
	blockPos := make(map[*ir.Block]int, len(f.Blocks))
	for i, b := range f.Blocks {
		blockPos[b] = i
	}

	// Pure instructions in RPO definition order — the deterministic
	// spine every class assignment follows.
	var pure []*ir.Instruction
	for _, b := range rpo {
		for _, in := range b.Instrs() {
			if isPure(in) {
				pure = append(pure, in)
			}
		}
	}
	if len(pure) == 0 {
		return 0
	}

	// Operand classes: pure instructions carry ids >= 0 (reassigned
	// every round); everything else — constants, globals, arguments,
	// impure instructions — gets a fixed negative id, equal keys equal
	// ids, assigned on first encounter in deterministic operand order.
	classOf := make(map[ir.Value]int, len(pure)*2)
	extern := make(map[string]int)
	nextExtern := -1
	externClass := func(v ir.Value) int {
		if id, ok := classOf[v]; ok {
			return id
		}
		if key, ok := externKey(f, v); ok {
			if id, ok := extern[key]; ok {
				classOf[v] = id
				return id
			}
			extern[key] = nextExtern
			classOf[v] = nextExtern
			nextExtern--
			return classOf[v]
		}
		if a, ok := v.(*ir.Argument); ok {
			key := fmt.Sprintf("arg|%d", a.Index())
			if id, ok := extern[key]; ok {
				classOf[v] = id
				return id
			}
			extern[key] = nextExtern
			classOf[v] = nextExtern
			nextExtern--
			return classOf[v]
		}
		// Impure instruction or other opaque value: a singleton class.
		classOf[v] = nextExtern
		nextExtern--
		return classOf[v]
	}
	operandClass := func(v ir.Value) int {
		if in, ok := v.(*ir.Instruction); ok {
			if id, ok := classOf[in]; ok && id >= 0 {
				return id
			}
		}
		return externClass(v)
	}

	// The shape of an instruction never changes across rounds: opcode,
	// result type, predicate, arity, and for phis the owning block.
	shapes := make(map[*ir.Instruction]string, len(pure))
	for _, in := range pure {
		var sb strings.Builder
		fmt.Fprintf(&sb, "%d|%s|%d|%d", in.Op(), typeStr(in.Type()), in.Pred(), in.NumOperands())
		if in.Op() == ir.OpPhi {
			fmt.Fprintf(&sb, "|b%d", blockPos[in.Parent()])
		}
		shapes[in] = sb.String()
	}

	// Optimistic initial partition: shape alone. Then refine by operand
	// class signatures until the partition stops changing; each round
	// reassigns ids 0..k-1 by first appearance in RPO, so the outcome is
	// deterministic.
	assign := func(sigOf func(*ir.Instruction) string) bool {
		// All signatures are computed against the previous round's
		// classes before any id is reassigned.
		sigs := make([]string, len(pure))
		for i, in := range pure {
			sigs[i] = sigOf(in)
		}
		ids := make(map[string]int, len(pure))
		changed := false
		for i, in := range pure {
			id, ok := ids[sigs[i]]
			if !ok {
				id = len(ids)
				ids[sigs[i]] = id
			}
			if classOf[in] != id {
				changed = true
			}
			classOf[in] = id
		}
		return changed
	}
	assign(func(in *ir.Instruction) string { return shapes[in] })
	for round := 0; round < len(pure)+2; round++ {
		if !assign(func(in *ir.Instruction) string { return signature(in, shapes[in], blockPos, operandClass) }) {
			break
		}
	}

	// Leader elimination over the dominator tree: a preorder walk keeps,
	// per congruence class, the leader on the current dominance path;
	// any instruction meeting a live leader is congruent to a dominator
	// and folds into it.
	leaders := make(map[int]*ir.Instruction)
	erased := 0
	var walk func(b *ir.Block)
	walk = func(b *ir.Block) {
		type saved struct {
			cls  int
			prev *ir.Instruction
			had  bool
		}
		var undo []saved
		for _, in := range append([]*ir.Instruction(nil), b.Instrs()...) {
			cls, ok := classOf[in]
			if !ok || cls < 0 || !isPure(in) {
				continue
			}
			if lead, live := leaders[cls]; live {
				ir.ReplaceAllUsesWith(in, lead)
				b.Erase(in)
				delete(classOf, in)
				erased++
				continue
			}
			undo = append(undo, saved{cls: cls})
			leaders[cls] = in
		}
		for _, c := range dt.Children(b) {
			walk(c)
		}
		for i := len(undo) - 1; i >= 0; i-- {
			s := undo[i]
			if s.had {
				leaders[s.cls] = s.prev
			} else {
				delete(leaders, s.cls)
			}
		}
	}
	walk(rpo[0])
	return erased
}

// signature renders an instruction's congruence signature for one
// refinement round: its shape plus the classes of its operands — for
// phis, (predecessor position, class) pairs in predecessor order so
// textual incoming order is irrelevant.
func signature(in *ir.Instruction, shape string, blockPos map[*ir.Block]int, operandClass func(ir.Value) int) string {
	var sb strings.Builder
	sb.WriteString(shape)
	if in.Op() == ir.OpPhi {
		n := in.NumIncoming()
		type inc struct{ pos, cls int }
		incs := make([]inc, n)
		for i := 0; i < n; i++ {
			incs[i] = inc{pos: blockPos[in.IncomingBlock(i)], cls: operandClass(in.IncomingValue(i))}
		}
		sort.Slice(incs, func(i, j int) bool { return incs[i].pos < incs[j].pos })
		for _, p := range incs {
			fmt.Fprintf(&sb, "|%d:%d", p.pos, p.cls)
		}
		return sb.String()
	}
	for i := 0; i < in.NumOperands(); i++ {
		fmt.Fprintf(&sb, "|%d", operandClass(in.Operand(i)))
	}
	return sb.String()
}

// isPure reports whether in computes a value purely from its operands —
// the instructions GVN may value-number. Loads are excluded (side
// effects), as is everything control- or memory-touching.
func isPure(in *ir.Instruction) bool {
	op := in.Op()
	if op.HasSideEffects() || op.IsTerminator() {
		return false
	}
	switch {
	case op.IsBinary(), op.IsCast():
		return true
	}
	switch op {
	case ir.OpICmp, ir.OpFCmp, ir.OpSelect, ir.OpGEP, ir.OpPhi:
		return true
	}
	return false
}

func typeStr(t ir.Type) string {
	if t == nil {
		return "void"
	}
	return t.String()
}
