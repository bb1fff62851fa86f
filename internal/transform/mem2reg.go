// Package transform implements the scalar and CFG transformations the
// merging pipeline depends on: register promotion (Mem2Reg, the standard
// SSA construction algorithm), register demotion (RegToMem), clean-up
// simplification and dead-code elimination.
package transform

import (
	"repro/internal/analysis"
	"repro/internal/ir"
)

// IsPromotable reports whether the alloca's value can be promoted to an
// SSA register: every use must be a direct load from it or a store *to*
// it (the address must not be stored, selected, passed or otherwise
// escape). This is the criterion from the paper's Section 3: "to be
// promotable, a stack location must be always used directly as the
// immediate argument of the operations that access the location".
func IsPromotable(alloca *ir.Instruction) bool { return promotable(alloca, allUses) }

// promotable is IsPromotable over the uses v counts.
func promotable(alloca *ir.Instruction, v uses) bool {
	if alloca.Op() != ir.OpAlloca {
		return false
	}
	for _, u := range ir.UsesOf(alloca) {
		if !v.counts(u) {
			continue
		}
		switch u.User.Op() {
		case ir.OpLoad:
			// Always the pointer operand.
		case ir.OpStore:
			if u.Index != 1 {
				return false // the address itself is being stored
			}
		default:
			return false
		}
	}
	return true
}

// Mem2Reg promotes every promotable alloca in f to SSA registers using
// phi placement on iterated dominance frontiers followed by dominator-
// tree renaming (Cytron et al.), and returns the number of allocas
// promoted. Loads with no reaching store yield undef.
func Mem2Reg(f *ir.Function) int { return Mem2RegWithDom(f, nil) }

// Mem2RegWithDom is Mem2Reg over a caller-owned dominator tree of f
// (promotion never alters the CFG, so the tree is as valid afterwards as
// before); nil builds one if anything turns out to be promotable.
func Mem2RegWithDom(f *ir.Function, dt *analysis.DomTree) int {
	if f.IsDecl() {
		return 0
	}
	var allocas []*ir.Instruction
	f.Instrs(func(in *ir.Instruction) bool {
		if in.Op() == ir.OpAlloca && IsPromotable(in) {
			allocas = append(allocas, in)
		}
		return true
	})
	if len(allocas) == 0 {
		return 0
	}
	if dt == nil {
		dt = analysis.NewDomTree(f)
	}
	df := analysis.NewDomFrontier(dt)

	index := make(map[*ir.Instruction]int, len(allocas))
	for i, a := range allocas {
		index[a] = i
	}

	// Remove loads/stores in unreachable blocks up front; renaming never
	// visits them and they would keep the allocas alive.
	for _, b := range f.Blocks {
		if dt.IsReachable(b) {
			continue
		}
		for i := 0; i < b.Len(); {
			in := b.Instrs()[i]
			if _, ok := allocaAccess(in, index); !ok {
				i++
				continue
			}
			if in.Op() == ir.OpLoad {
				ir.ReplaceAllUsesWith(in, ir.NewUndef(in.Type()))
			}
			b.Erase(in)
		}
	}

	// Phi placement at iterated dominance frontiers of the store blocks:
	// first where, alloca by alloca, then the phis themselves, grouped by
	// block with alloca order kept within one — block b's are
	// placements[phiStart[b]:phiStart[b+1]], a CSR filled as in
	// analysis.csrStarts.
	type placed struct {
		alloca int32
		phi    *ir.Instruction
	}
	var (
		where              []struct{ block, alloca int32 }
		defBlocks, idf     []*ir.Block
		nblocks            = len(f.Blocks)
		slab               = make([]int32, 2*nblocks+2)
		phiStart, lastSeen = slab[:nblocks+2], slab[nblocks+2:]
	)
	// lastSeen[b] == tag says block b was already listed under tag: per
	// alloca while collecting store blocks, per visited block while adding
	// phi edges below. Tags are 1-based and never repeat.
	tag := int32(0)
	for i, a := range allocas {
		tag++
		defBlocks = defBlocks[:0]
		for _, u := range ir.UsesOf(a) {
			if u.User.Op() != ir.OpStore {
				continue
			}
			if b := u.User.Parent(); lastSeen[b.Index()] != tag {
				lastSeen[b.Index()] = tag
				defBlocks = append(defBlocks, b)
			}
		}
		idf = df.Iterated(defBlocks, idf[:0])
		for _, b := range idf {
			where = append(where, struct{ block, alloca int32 }{int32(b.Index()), int32(i)})
			phiStart[b.Index()+2]++
		}
	}
	for i := 1; i < len(phiStart); i++ {
		phiStart[i] += phiStart[i-1]
	}
	placements := make([]placed, len(where))
	for _, at := range where {
		// Renaming adds one edge per distinct reachable predecessor.
		a := allocas[at.alloca]
		phi := ir.NewPhiSized(a.Name(), a.AllocTy, dt.NumPreds(f.Blocks[at.block]))
		placements[phiStart[at.block+1]] = placed{alloca: at.alloca, phi: phi}
		phiStart[at.block+1]++
	}
	phisOf := func(b *ir.Block) []placed { return placements[phiStart[b.Index()]:phiStart[b.Index()+1]] }
	// Each block takes its phis in one splice, the last alloca's first
	// (the order one InsertAtFront per phi used to leave).
	var front []*ir.Instruction
	for _, b := range f.Blocks {
		group := phisOf(b)
		if len(group) == 0 {
			continue
		}
		front = front[:0]
		for i := len(group) - 1; i >= 0; i-- {
			front = append(front, group[i].phi)
		}
		b.InsertAllAtFront(front)
	}

	// Renaming walk over the dominator tree, a block's children last to
	// first. vals holds every alloca's reaching value at the walk's
	// position; what a block overwrites is logged, and undone once its
	// subtree is finished, so that its siblings start from their parent's
	// values as it did.
	type overwritten struct {
		alloca int
		val    ir.Value
	}
	type frame struct {
		b    *ir.Block // nil: the subtree that logged undo[mark:] is finished
		mark int
	}
	var (
		vals  = make([]ir.Value, len(allocas))
		undo  []overwritten
		stack = []frame{{b: f.Entry()}}
	)
	for i, a := range allocas {
		vals[i] = ir.NewUndef(a.AllocTy)
	}
	set := func(a int, v ir.Value) {
		undo = append(undo, overwritten{a, vals[a]})
		vals[a] = v
	}
	for len(stack) > 0 {
		fr := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if fr.b == nil {
			for ; len(undo) > fr.mark; undo = undo[:len(undo)-1] {
				last := undo[len(undo)-1]
				vals[last.alloca] = last.val
			}
			continue
		}
		mark := len(undo)
		for _, p := range phisOf(fr.b) {
			set(int(p.alloca), p.phi)
		}
		for i := 0; i < fr.b.Len(); {
			in := fr.b.Instrs()[i]
			a, ok := allocaAccess(in, index)
			if !ok {
				i++
				continue
			}
			switch in.Op() {
			case ir.OpLoad:
				ir.ReplaceAllUsesWith(in, vals[a])
			case ir.OpStore:
				set(a, in.Operand(0))
			}
			fr.b.Erase(in)
		}
		// Add successor phi edges once per predecessor block: a branch with
		// both edges to the same block contributes a single incoming entry,
		// matching Preds() dedup semantics.
		tag++
		if t := fr.b.Term(); t != nil {
			for _, op := range t.Operands() {
				s, ok := op.(*ir.Block)
				if !ok || lastSeen[s.Index()] == tag {
					continue
				}
				lastSeen[s.Index()] = tag
				ir.ReserveUses(fr.b, len(phisOf(s)))
				for _, p := range phisOf(s) {
					p.phi.AddIncoming(vals[p.alloca], fr.b)
				}
			}
		}
		if len(undo) > mark {
			stack = append(stack, frame{mark: mark})
		}
		for _, child := range dt.Children(fr.b) {
			stack = append(stack, frame{b: child})
		}
	}

	for _, a := range allocas {
		a.Parent().Erase(a)
	}
	RemoveTrivialPhis(f, dt)
	return len(allocas)
}

// allocaAccess reports whether in is a load/store accessing one of the
// tracked allocas, returning its index.
func allocaAccess(in *ir.Instruction, index map[*ir.Instruction]int) (int, bool) {
	switch in.Op() {
	case ir.OpLoad:
		if a, ok := in.Operand(0).(*ir.Instruction); ok {
			i, ok := index[a]
			return i, ok
		}
	case ir.OpStore:
		if a, ok := in.Operand(1).(*ir.Instruction); ok {
			i, ok := index[a]
			return i, ok
		}
	}
	return 0, false
}

// RemoveTrivialPhis repeatedly eliminates phis that are redundant:
// every incoming value is either the phi itself, undef, or a single
// common value v — the phi is replaced by v. Phis whose incomings are all
// undef become undef. When undef edges were skipped, v must dominate the
// phi for the replacement to preserve SSA dominance (cf. LLVM's
// simplifyPHINode), which dt — a dominator tree of f's current CFG —
// answers; phi removal never alters the CFG, so the tree outlives the
// call. Returns the number of phis removed.
func RemoveTrivialPhis(f *ir.Function, dt *analysis.DomTree) int {
	removed := 0
	w := resweep{blocks: len(f.Blocks)}
	for w.begin() {
		for bi, b := range f.Blocks {
			if !w.due(bi) {
				continue
			}
			for i := 0; i < b.Len() && b.Instrs()[i].Op() == ir.OpPhi; {
				phi := b.Instrs()[i]
				unique, ok := trivialPhiValue(phi, dt)
				if !ok {
					i++
					continue
				}
				w.erasing(phi)
				ir.ReplaceAllUsesWith(phi, unique)
				b.Erase(phi)
				removed++
			}
		}
	}
	return removed
}

// trivialPhiValue returns the value a redundant phi may be replaced by.
func trivialPhiValue(phi *ir.Instruction, dt *analysis.DomTree) (ir.Value, bool) {
	var unique ir.Value
	sawUndef := false
	for i := 0; i < phi.NumIncoming(); i++ {
		v := phi.IncomingValue(i)
		if v == ir.Value(phi) {
			continue
		}
		if isUndef(v) {
			sawUndef = true
			continue
		}
		if unique == nil {
			unique = v
		} else if !ir.ValuesEqual(unique, v) {
			return nil, false
		}
	}
	if unique == nil {
		return ir.NewUndef(phi.Type()), true
	}
	if sawUndef {
		// With undef edges ignored, v reaches the phi on only some
		// paths; replacing is sound (undef may be anything) but only
		// legal when v's definition dominates the phi.
		if def, ok := unique.(*ir.Instruction); ok {
			b := phi.Parent()
			if def.Parent() == b {
				if def.Op() != ir.OpPhi {
					return nil, false
				}
			} else if !dt.StrictlyDominates(def.Parent(), b) {
				return nil, false
			}
		}
	}
	return unique, true
}

func isUndef(v ir.Value) bool {
	_, ok := v.(*ir.Undef)
	return ok
}
