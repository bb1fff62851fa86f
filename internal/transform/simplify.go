package transform

import (
	"repro/internal/analysis"
	"repro/internal/ir"
)

// Simplify runs the post-merge clean-up pipeline on f until fixpoint:
// constant folding, terminator folding, unreachable-block elimination,
// trivial/duplicate phi removal, straight-line block merging, empty
// block forwarding and dead-code elimination. This corresponds to the
// "Simplification" stage of the paper's Figure 1. Returns the total
// number of changes applied.
func Simplify(f *ir.Function) int {
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

// SimplifyModule runs Simplify over every defined function.
func SimplifyModule(m *ir.Module) int {
	total := 0
	for _, f := range m.Funcs {
		total += Simplify(f)
	}
	return total
}

// FoldInstructions applies constant folding and algebraic simplification
// to every instruction, replacing folded instructions with their values.
func FoldInstructions(f *ir.Function) int {
	n := 0
	for _, b := range f.Blocks {
		for i := 0; i < b.Len(); {
			in := b.Instrs()[i]
			v := foldConstExpr(in)
			if v == nil {
				i++
				continue
			}
			ir.ReplaceAllUsesWith(in, v)
			b.Erase(in)
			n++
		}
	}
	return n
}

// FoldTerminators rewrites conditional branches on constants (or with
// identical targets) into unconditional branches, and switches on
// constants into unconditional branches. Phi edges in abandoned targets
// are updated.
func FoldTerminators(f *ir.Function) int {
	n := 0
	for _, b := range f.Blocks {
		t := b.Term()
		if t == nil {
			continue
		}
		keep := foldedTarget(t)
		if keep == nil {
			continue
		}
		abandoned := t.Succs()
		if t.Op() == ir.OpSwitch {
			// The cases' targets first, then the default's.
			abandoned = append(abandoned[1:], abandoned[0])
		}
		b.Erase(t)
		b.Append(ir.NewBr(keep))
		removePhiEdgesFromNonPred(b, abandoned...)
		n++
	}
	return n
}

// foldedTarget is FoldTerminators' trigger: the block a terminator
// becomes an unconditional branch to — a conditional branch with one
// target or on a constant, a switch on a constant — or nil.
func foldedTarget(t *ir.Instruction) *ir.Block {
	switch {
	case t.IsCondBr():
		ifTrue := t.Operand(1).(*ir.Block)
		ifFalse := t.Operand(2).(*ir.Block)
		if ifTrue == ifFalse {
			return ifTrue
		}
		if c, ok := t.Operand(0).(*ir.ConstInt); ok {
			if c.IsZero() {
				return ifFalse
			}
			return ifTrue
		}
	case t.Op() == ir.OpSwitch:
		c, ok := t.Operand(0).(*ir.ConstInt)
		if !ok {
			return nil
		}
		dest := t.Operand(1).(*ir.Block) // default
		for _, cs := range t.SwitchCases() {
			if cs.Val.V == c.V {
				dest = cs.Dest
			}
		}
		return dest
	}
	return nil
}

// removePhiEdgesFromNonPred removes phi incoming entries for b in each
// candidate block that is no longer a successor of b.
func removePhiEdgesFromNonPred(b *ir.Block, candidates ...*ir.Block) {
	for _, c := range candidates {
		if c.HasPred(b) {
			continue
		}
		for _, phi := range c.Phis() {
			phi.RemoveIncomingFor(b)
		}
	}
}

// RemoveUnreachable deletes the blocks dt — a dominator tree of f's
// current CFG — finds unreachable from the entry, dropping their edges
// from the phis of reachable blocks. Removing blocks renumbers the
// survivors, so dt is stale once this returns non-zero.
func RemoveUnreachable(f *ir.Function, dt *analysis.DomTree) int {
	if !hasUnreachable(f, dt) {
		return 0
	}
	var dead []*ir.Block
	for _, b := range f.Blocks {
		if !dt.IsReachable(b) {
			dead = append(dead, b)
		}
	}
	// Drop phi edges coming from dead blocks.
	for _, b := range f.Blocks {
		if !dt.IsReachable(b) {
			continue
		}
		for _, phi := range b.Phis() {
			for i := phi.NumIncoming() - 1; i >= 0; i-- {
				if !dt.IsReachable(phi.IncomingBlock(i)) {
					phi.RemoveIncoming(i)
				}
			}
		}
	}
	// Erase dead blocks as a group; values defined in them can only be
	// used inside the group (dominance), so group erasure is safe.
	f.EraseBlocks(dead)
	return len(dead)
}

// hasUnreachable is RemoveUnreachable's trigger.
func hasUnreachable(f *ir.Function, dt *analysis.DomTree) bool {
	return len(dt.RPO()) != len(f.Blocks)
}

// foldSinglePredPhis replaces phis in blocks with exactly one predecessor
// by their single incoming value.
func foldSinglePredPhis(f *ir.Function) int {
	n := 0
	for _, b := range f.Blocks {
		if !phisFoldable(b, allUses) {
			continue
		}
		for i := 0; i < b.Len() && b.Instrs()[i].Op() == ir.OpPhi; {
			phi := b.Instrs()[i]
			if phi.NumIncoming() != 1 {
				i++
				continue
			}
			ir.ReplaceAllUsesWith(phi, phi.IncomingValue(0))
			b.Erase(phi)
			n++
		}
	}
	return n
}

// phisFoldable is foldSinglePredPhis' trigger for a block: it has phis
// and one predecessor, so each of its phis with one edge folds.
func phisFoldable(b *ir.Block, v uses) bool {
	return len(b.Phis()) > 0 && v.uniquePred(b) != nil
}

// MergeStraightLineBlocks merges each block pair (B, S) where B's only
// exit is an unconditional branch to S and B is S's only predecessor.
func MergeStraightLineBlocks(f *ir.Function) int {
	// The merging code generator emits one block per straight-line run of
	// aligned rows, so what is left to merge is a label block reached
	// only from the end of another (its original block's one
	// predecessor), and what folding exposes; such merges can still chain,
	// so after absorbing a successor the same block is retried
	// immediately, keeping the pass linear in the chain length instead of
	// one outer pass per merged block. For the same reason an absorbed
	// block is only emptied where it stands — it has no terminator left,
	// so the walk passes over it — and the whole group leaves the block
	// list in one compaction at the end.
	var absorbed []*ir.Block
	for _, b := range f.Blocks {
		for {
			s := absorbable(b, allUses)
			if s == nil {
				break
			}
			// Single-pred phis in S fold to their incoming value.
			for len(s.Phis()) > 0 {
				phi := s.First()
				ir.ReplaceAllUsesWith(phi, phi.IncomingValue(0))
				s.Erase(phi)
			}
			b.Erase(b.Term())
			b.TakeInstrs(s)
			// Successor phis referencing S now flow from B.
			for _, u := range append([]ir.Use(nil), ir.UsesOf(s)...) {
				u.User.SetOperand(u.Index, b)
			}
			absorbed = append(absorbed, s)
		}
	}
	if len(absorbed) > 0 {
		f.EraseBlocks(absorbed)
	}
	return len(absorbed)
}

// absorbable is MergeStraightLineBlocks' trigger: the block b absorbs —
// its unconditional branch's target, if b is that block's only
// predecessor — or nil.
func absorbable(b *ir.Block, v uses) *ir.Block {
	t := b.Term()
	if t == nil || t.Op() != ir.OpBr || t.IsCondBr() {
		return nil
	}
	s := t.Operand(0).(*ir.Block)
	if s == b || s.IsEntry() || v.uniquePred(s) != b {
		return nil
	}
	if lp := s.FirstNonPhi(); lp != nil && lp.Op() == ir.OpLandingPad {
		return nil // landingpad blocks must remain invoke targets
	}
	return s
}

// ForwardEmptyBlocks removes blocks that contain only an unconditional
// branch by retargeting their predecessors directly to the destination
// (LLVM's TryToSimplifyUncondBranchFromEmptyBlock). A block is kept when
// forwarding would create conflicting phi edges in the destination.
func ForwardEmptyBlocks(f *ir.Function) int {
	n := 0
	for changed := true; changed; {
		changed = false
		for _, b := range f.Blocks {
			dest := forwardTarget(b, allUses)
			if dest == nil {
				continue
			}
			// Fix dest phis: the value that flowed through b now flows
			// directly from each of b's predecessors.
			preds := b.Preds()
			for _, phi := range dest.Phis() {
				v, ok := phi.IncomingFor(b)
				if !ok {
					continue
				}
				phi.RemoveIncomingFor(b)
				for _, p := range preds {
					if _, dup := phi.IncomingFor(p); !dup {
						phi.AddIncoming(v, p)
					}
				}
			}
			for _, p := range preds {
				p.Term().ReplaceSuccessor(b, dest)
			}
			f.EraseBlock(b)
			n++
			changed = true
		}
	}
	return n
}

// forwardTarget is ForwardEmptyBlocks' trigger: the block b's
// predecessors are retargeted to — b holds nothing but an unconditional
// branch there, and retargeting keeps dest's phis consistent — or nil.
// It also vouches that the rewrite leaves b unused, so that the pass
// never rewrites a block it then cannot erase (and count).
func forwardTarget(b *ir.Block, v uses) *ir.Block {
	if b.IsEntry() || b.Len() != 1 {
		return nil
	}
	t := b.Term()
	if t == nil || t.Op() != ir.OpBr || t.IsCondBr() {
		return nil
	}
	dest := t.Operand(0).(*ir.Block)
	if dest == b {
		return nil
	}
	preds := v.preds(b)
	if len(preds) == 0 {
		return nil
	}
	for _, p := range preds {
		// An invoke's unwind edge must keep pointing at a landingpad
		// block; forwarding through b is fine only if dest starts with the
		// landingpad, which MergeStraightLineBlocks handles instead.
		if p.Term().Op() == ir.OpInvoke {
			return nil
		}
	}
	for _, phi := range dest.Phis() {
		vb, ok := phi.IncomingFor(b)
		if !ok {
			return nil // inconsistent phi; leave alone
		}
		for _, p := range preds {
			if vp, already := phi.IncomingFor(p); already && !ir.ValuesEqual(vp, vb) {
				return nil
			}
		}
	}
	// The rewrite drops b from dest's phis and from its predecessors'
	// terminators; any other use — a phi elsewhere holding a stale edge,
	// a detached terminator — would outlive it.
	for _, u := range ir.UsesOf(b) {
		if !v.counts(u) {
			continue
		}
		if u.User.Op() == ir.OpPhi {
			if u.User.Parent() != dest {
				return nil
			}
		} else if !u.User.IsTerminator() || u.User.Parent() == nil {
			return nil
		}
	}
	return dest
}

// DCE erases instructions whose results are unused and whose execution
// has no observable effect (including unused loads, allocas, phis and
// pure arithmetic). Returns the number of instructions removed.
func DCE(f *ir.Function) int {
	n := 0
	for changed := true; changed; {
		changed = false
		for _, b := range f.Blocks {
			instrs := b.Instrs()
			for i := len(instrs) - 1; i >= 0; i-- {
				in := instrs[i]
				if !dead(in, allUses) {
					continue
				}
				b.Erase(in)
				instrs = b.Instrs()
				n++
				changed = true
			}
		}
	}
	return n
}

// dead is DCE's trigger: in is unused and removable.
func dead(in *ir.Instruction, v uses) bool {
	return isRemovable(in) && !v.has(in)
}

// isRemovable reports whether an unused in can be deleted.
func isRemovable(in *ir.Instruction) bool {
	switch in.Op() {
	case ir.OpLoad, ir.OpAlloca, ir.OpPhi, ir.OpSelect, ir.OpGEP, ir.OpICmp, ir.OpFCmp:
		return true
	case ir.OpStore, ir.OpCall, ir.OpInvoke, ir.OpLandingPad, ir.OpResume:
		return false
	default:
		return !in.IsTerminator()
	}
}
