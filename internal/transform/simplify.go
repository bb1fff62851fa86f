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
//
// Its rounds are those of a loop that runs every pass over every block
// until a round changes nothing (the specification, kept in
// simplify_spec_test.go), and so are their rewrites; but each pass
// visits only the blocks due for it (due.go), and the loop stops as soon
// as no pass has anything left to do, without a round to confirm it.
func Simplify(f *ir.Function) int {
	if f.IsDecl() {
		return 0
	}
	total := 0
	sc := newScratch(f, nil)
	s := &sc
	for {
		n := FoldInstructions(f)
		n += FoldTerminators(f)
		if dead := removeUnreachable(s); dead > 0 {
			n += dead
			// Phis in blocks that just lost predecessors may now be trivial.
			removeTrivialPhis(s)
		}
		n += foldSinglePredPhis(f)
		n += removeTrivialPhis(s)
		n += removeDuplicatePhis(s)
		n += mergeStraightLineBlocks(s)
		n += forwardEmptyBlocks(s)
		n += DCE(f)
		total += n
		if n == 0 || settled(s, simplifyPasses...) {
			return total
		}
	}
}

// simplifyPasses are Simplify's passes in round order.
var simplifyPasses = []pass{passFoldInstructions, passFoldTerminators, passUnreachable,
	passSinglePredPhis, passTrivialPhis, passDuplicatePhis, passMergeBlocks, passForwardEmpty, passDCE}

// FoldFixpoint runs RemoveDuplicatePhis, FoldInstructions and
// RemoveTrivialPhis, in that order, in rounds until none has anything
// left to do, and returns how many changes they made: the clean-up SSA
// repair ends with, folding the selects and phis phi-node coalescing
// made redundant (paper §4.3–4.4). dt is f's dominator tree, which none
// of the three alters. Like Simplify it stops without a round to confirm
// that nothing is left, and the blocks it leaves clean stay clean for
// Simplify's passes of the same names.
func FoldFixpoint(f *ir.Function, dt *analysis.DomTree) int {
	if fixpointEntry != nil {
		fixpointEntry(f)
	}
	sc := newScratch(f, dt)
	s := &sc
	total := 0
	for {
		n := removeDuplicatePhis(s)
		n += FoldInstructions(f)
		n += removeTrivialPhis(s)
		total += n
		if n == 0 || settled(s, passDuplicatePhis, passFoldInstructions, passTrivialPhis) {
			return total
		}
	}
}

// fixpointEntry, when a test sets it, gets f before every FoldFixpoint.
var fixpointEntry func(f *ir.Function)

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
		if !due(passFoldInstructions, b, nil) {
			continue
		}
		clean(passFoldInstructions, b)
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
		if !due(passFoldTerminators, b, nil) {
			continue
		}
		clean(passFoldTerminators, b)
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
	s := newScratch(f, dt)
	return removeUnreachable(&s)
}

func removeUnreachable(s *scratch) int {
	f := s.f
	if !unreachableDue(s) {
		return 0
	}
	// Erasing unreachable blocks leaves none behind.
	defer func() { f.SetMark(f.Edits()) }()
	if !s.hasUnreachable() {
		return 0
	}
	s.dominanceChanged()
	defer s.keptDominance()
	reach := s.reachable()
	var dead []*ir.Block
	for _, b := range f.Blocks {
		if !reach[b.Index()] {
			dead = append(dead, b)
		}
	}
	// Drop phi edges coming from dead blocks.
	for _, b := range f.Blocks {
		if !reach[b.Index()] {
			continue
		}
		for _, phi := range b.Phis() {
			for i := phi.NumIncoming() - 1; i >= 0; i-- {
				if !reach[phi.IncomingBlock(i).Index()] {
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

// foldSinglePredPhis replaces phis in blocks with exactly one predecessor
// by their single incoming value.
func foldSinglePredPhis(f *ir.Function) int {
	n := 0
	for _, b := range f.Blocks {
		if !due(passSinglePredPhis, b, nil) {
			continue
		}
		clean(passSinglePredPhis, b)
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
	s := newScratch(f, nil)
	return mergeStraightLineBlocks(&s)
}

func mergeStraightLineBlocks(sc *scratch) int {
	f := sc.f
	sc.dominanceChanged()
	defer sc.keptDominance()
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
	var kept []keptClean
	for _, b := range f.Blocks {
		if !due(passMergeBlocks, b, nil) {
			continue
		}
		clean(passMergeBlocks, b)
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
			// The rest — B's branch gone, S's instructions moved into B, the
			// phis that named S naming B — changes nothing any trigger
			// reads but names, so what was clean stays clean (keepAcross).
			kept = sc.keepAcross(kept[:0], b, s)
			b.Erase(b.Term())
			b.TakeInstrs(s)
			// Successor phis referencing S now flow from B.
			for _, u := range append([]ir.Use(nil), ir.UsesOf(s)...) {
				u.User.SetOperand(u.Index, b)
			}
			for _, k := range kept {
				clean(k.p, k.blk)
			}
			sc.keptDominance()
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
	s := newScratch(f, nil)
	return forwardEmptyBlocks(&s)
}

func forwardEmptyBlocks(s *scratch) int {
	f := s.f
	s.dominanceChanged()
	defer s.keptDominance()
	n := 0
	for {
		changed := false
		// An erasure shifts the blocks after it down under the range, so
		// the sweep skips the next one, and sees the last twice.
		for _, b := range f.Blocks {
			if !due(passForwardEmpty, b, nil) {
				continue
			}
			clean(passForwardEmpty, b)
			dest := forwardTarget(b, allUses)
			if dest == nil {
				continue
			}
			// Fix dest phis: the value that flowed through b now flows
			// directly from each of b's predecessors. Each phi trades b's
			// edge for theirs at b's value, which forwardTarget checked
			// against any edge one of them already has (and the phis of a
			// verified function list the same edges), so no two phis come
			// to merge and none turns trivial that did not before: dest
			// keeps its verdicts for both.
			keepDup, keepTrivial := !due(passDuplicatePhis, dest, s), !due(passTrivialPhis, dest, s)
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
			s.keptDominance()
			if keepDup {
				clean(passDuplicatePhis, dest)
			}
			if keepTrivial {
				clean(passTrivialPhis, dest)
			}
			n++
			changed = true
		}
		if !changed || settled(s, passForwardEmpty) {
			return n
		}
	}
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
	s := newScratch(f, nil)
	n := 0
	for {
		changed := false
		for _, b := range f.Blocks {
			if !due(passDCE, b, nil) {
				continue
			}
			clean(passDCE, b)
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
		if !changed || settled(&s, passDCE) {
			return n
		}
	}
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
