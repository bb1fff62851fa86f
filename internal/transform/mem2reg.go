// Package transform implements the scalar and CFG transformations the
// merging pipeline depends on: register promotion (Mem2Reg, the standard
// SSA construction algorithm), register demotion (RegToMem), clean-up
// simplification and dead-code elimination.
package transform

import (
	"cmp"
	"slices"

	"repro/internal/analysis"
	"repro/internal/ir"
)

// IsPromotable reports whether the alloca's value can be promoted to an
// SSA register: every use must be a direct load from it or a store *to*
// it (the address must not be stored, selected, passed or otherwise
// escape). This is the criterion from the paper's Section 3: "to be
// promotable, a stack location must be always used directly as the
// immediate argument of the operations that access the location".
func IsPromotable(alloca *ir.Instruction) bool {
	if alloca.Op() != ir.OpAlloca {
		return false
	}
	for _, u := range ir.UsesOf(alloca) {
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

	// Phi placement at iterated dominance frontiers of the store blocks.
	type placed struct {
		block, alloca int32
		phi           *ir.Instruction
	}
	var (
		placements         []placed
		defBlocks, idf     []*ir.Block
		nblocks            = len(f.Blocks)
		slab               = make([]int32, 2*nblocks+1)
		phiStart, lastSeen = slab[:nblocks+1], slab[nblocks+1:]
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
			phi := ir.NewPhi(a.Name(), a.AllocTy)
			b.InsertAtFront(phi)
			placements = append(placements, placed{block: int32(b.Index()), alloca: int32(i), phi: phi})
			phiStart[b.Index()+1]++
		}
	}
	// Group the placed phis by block, alloca order kept within one: block
	// b's are placements[phiStart[b]:phiStart[b+1]].
	slices.SortStableFunc(placements, func(x, y placed) int { return cmp.Compare(x.block, y.block) })
	for i := 1; i < len(phiStart); i++ {
		phiStart[i] += phiStart[i-1]
	}
	phisOf := func(b *ir.Block) []placed { return placements[phiStart[b.Index()]:phiStart[b.Index()+1]] }

	// Renaming walk over the dominator tree.
	type frame struct {
		b        *ir.Block
		incoming []ir.Value
	}
	entryVals := make([]ir.Value, len(allocas))
	for i, a := range allocas {
		entryVals[i] = ir.NewUndef(a.AllocTy)
	}
	stack := []frame{{b: f.Entry(), incoming: entryVals}}
	for len(stack) > 0 {
		fr := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		vals := fr.incoming
		for _, p := range phisOf(fr.b) {
			vals[p.alloca] = p.phi
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
				vals[a] = in.Operand(0)
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
				for _, p := range phisOf(s) {
					p.phi.AddIncoming(vals[p.alloca], fr.b)
				}
			}
		}
		// Every child starts from this block's outgoing values; the last
		// one takes the slice itself, the others a copy.
		kids := dt.Children(fr.b)
		for k, child := range kids {
			in := vals
			if k < len(kids)-1 {
				in = append([]ir.Value(nil), vals...)
			}
			stack = append(stack, frame{b: child, incoming: in})
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
	for changed := true; changed; {
		changed = false
		for _, b := range f.Blocks {
			for i := 0; i < b.Len() && b.Instrs()[i].Op() == ir.OpPhi; {
				phi := b.Instrs()[i]
				unique, ok := trivialPhiValue(phi, dt)
				if !ok {
					i++
					continue
				}
				ir.ReplaceAllUsesWith(phi, unique)
				b.Erase(phi)
				removed++
				changed = true
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

// RemoveDuplicatePhis merges phis within a block that are identical up
// to undef refinement: where one phi has undef for an incoming edge and
// the other has a concrete value, the concrete value wins (refining an
// undef is always sound). The paper relies on this clean-up to merge the
// identical phi-nodes that SalSSA copies from both input functions; the
// undef refinement additionally collapses the phis introduced by SSA
// repair into the copied phis they duplicate. Returns the number of phis
// removed.
func RemoveDuplicatePhis(f *ir.Function) int {
	removed := 0
	for changed := true; changed; {
		changed = false
		for _, b := range f.Blocks {
			if len(b.Phis()) < 2 {
				continue
			}
			phis := append([]*ir.Instruction(nil), b.Phis()...)
			for i := 0; i < len(phis); i++ {
				if phis[i].Parent() == nil {
					continue
				}
				for j := i + 1; j < len(phis); j++ {
					if phis[j].Parent() == nil {
						continue
					}
					if mergePhiPair(b, phis[i], phis[j]) {
						removed++
						changed = true
					}
				}
			}
		}
	}
	return removed
}

// mergePhiPair merges redundant phis. Two phis merge when one refines
// the other *one-directionally*: every incoming of the weaker phi either
// equals the stronger phi's incoming or is undef. Bidirectional
// refinement (each phi concrete where the other is undef) is
// deliberately NOT performed here — that transformation is exactly
// phi-node coalescing, the paper's §4.4 optimisation, owned by the
// SalSSA generator so that the SalSSA-NoPC ablation stays meaningful.
func mergePhiPair(blk *ir.Block, a, b *ir.Instruction) bool {
	if !ir.TypesEqual(a.Type(), b.Type()) || a.NumIncoming() != b.NumIncoming() {
		return false
	}
	aWeaker, bWeaker := true, true
	for i := 0; i < a.NumIncoming(); i++ {
		bv, ok := b.IncomingFor(a.IncomingBlock(i))
		if !ok {
			return false
		}
		av := a.IncomingValue(i)
		switch {
		case ir.ValuesEqual(av, bv):
		case (av == ir.Value(b) && bv == ir.Value(a)) ||
			(av == ir.Value(a) && bv == ir.Value(b)):
			// mutually/self recursive duplicates
		case isUndef(av):
			bWeaker = false
		case isUndef(bv):
			aWeaker = false
		default:
			return false
		}
		if !aWeaker && !bWeaker {
			return false
		}
	}
	weak, strong := b, a
	if !bWeaker {
		weak, strong = a, b
	}
	// Collapse self/mutual references through the erased phi.
	for i := 0; i < strong.NumIncoming(); i++ {
		if strong.IncomingValue(i) == ir.Value(weak) {
			strong.SetIncomingValue(i, strong)
		}
	}
	ir.ReplaceAllUsesWith(weak, strong)
	blk.Erase(weak)
	return true
}

func isUndef(v ir.Value) bool {
	_, ok := v.(*ir.Undef)
	return ok
}
