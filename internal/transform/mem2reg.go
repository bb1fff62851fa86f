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
func Mem2Reg(f *ir.Function) int { return Mem2RegWithDom(f, nil, nil) }

// Mem2RegWithDom is Mem2Reg over a caller-owned dominator tree of f
// (promotion never alters the CFG, so the tree is as valid afterwards as
// before); nil builds one if anything turns out to be promotable. buf is
// SSA construction's working memory, as for BuildSSA.
func Mem2RegWithDom(f *ir.Function, dt *analysis.DomTree, buf *SSABuffers) int {
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

	// One variable per alloca, defined in the blocks that store to it.
	vars := make([]SSAVar, len(allocas))
	var stores []*ir.Block
	for i, a := range allocas {
		start := len(stores)
		for _, u := range ir.UsesOf(a) {
			if u.User.Op() == ir.OpStore {
				stores = append(stores, u.User.Parent())
			}
		}
		vars[i] = SSAVar{Name: a.Name(), Type: a.AllocTy(), Defs: stores[start:len(stores):len(stores)]}
	}
	BuildSSA(f, dt, vars, nil, func(b *ir.Block, r *Reaching) {
		for i := 0; i < b.Len(); {
			in := b.Instrs()[i]
			a, ok := allocaAccess(in, index)
			if !ok {
				i++
				continue
			}
			switch in.Op() {
			case ir.OpLoad:
				ir.ReplaceAllUsesWith(in, r.Get(a))
			case ir.OpStore:
				r.Set(a, in.Operand(0))
			}
			b.Erase(in)
		}
	}, buf)

	for _, a := range allocas {
		a.Parent().Erase(a)
	}
	RemoveTrivialPhis(f, dt)
	return len(allocas)
}

// SSAVar is one variable of BuildSSA: the blocks that assign it (in any
// order, repeats and unreachable blocks allowed), and the name and type
// of the phis placed for it.
type SSAVar struct {
	Name string
	Type ir.Type
	Defs []*ir.Block
}

// Reaching holds every variable's reaching value at BuildSSA's position
// in its walk.
type Reaching struct {
	vals []ir.Value
	undo []overwritten
}

type overwritten struct {
	v   int
	val ir.Value
}

// Get returns variable v's reaching value.
func (r *Reaching) Get(v int) ir.Value { return r.vals[v] }

// Set makes val variable v's reaching value from here on: for the rest
// of the block, its successors' phis and the blocks it dominates.
func (r *Reaching) Set(v int, val ir.Value) {
	r.undo = append(r.undo, overwritten{v, r.vals[v]})
	r.vals[v] = val
}

// BuildSSA is the standard SSA construction algorithm (Cytron et al.)
// over variables the caller defines. It places a phi for variable v in
// every block b of the iterated dominance frontier of v.Defs for which
// live(v, b) holds — every one when live is nil, the minimal placement —
// and renames in one walk of f's dominator tree dt, a block's children
// last to first. At each reachable block the block's phis become their
// variables' reaching values, visit reads and assigns the variables
// through r, and the values the block leaves flow into its successors'
// phis, one edge per distinct successor. A variable nothing assigns on
// the way reads undef.
//
// A block's phis go at its front, the last variable's first; each has
// room for one edge per distinct reachable predecessor. Only phis are
// added, so dt stays f's tree.
//
// buf is the working memory; nil takes fresh. A caller that builds SSA
// body after body keeps one SSABuffers and clears it (Clear) once the
// body is done with.
func BuildSSA(f *ir.Function, dt *analysis.DomTree, vars []SSAVar, live func(v int, b *ir.Block) bool, visit func(b *ir.Block, r *Reaching), buf *SSABuffers) {
	if buf == nil {
		buf = new(SSABuffers)
	}
	// Phi placement at iterated dominance frontiers of the definition
	// blocks: first where, variable by variable, then the phis
	// themselves, grouped by block with variable order kept within one —
	// block b's are placements[phiStart[b]:phiStart[b+1]], a CSR filled as
	// in analysis.csrStarts.
	buf.df.Rebuild(dt)
	nblocks := len(f.Blocks)
	buf.slab = resize(buf.slab, 2*nblocks+2)
	clear(buf.slab)
	phiStart, lastSeen := buf.slab[:nblocks+2], buf.slab[nblocks+2:]
	where, defBlocks, idf := buf.where[:0], buf.defBlocks, buf.idf
	// lastSeen[b] == tag says block b was already listed under tag: per
	// variable while collecting definition blocks, per visited block
	// while adding phi edges below. Tags are 1-based and never repeat.
	tag := int32(0)
	for v, x := range vars {
		tag++
		defBlocks = defBlocks[:0]
		for _, b := range x.Defs {
			if lastSeen[b.Index()] != tag {
				lastSeen[b.Index()] = tag
				defBlocks = append(defBlocks, b)
			}
		}
		idf = buf.df.Iterated(defBlocks, idf[:0])
		for _, b := range idf {
			if live == nil || live(v, b) {
				where = append(where, phiSite{int32(b.Index()), int32(v)})
				phiStart[b.Index()+2]++
			}
		}
	}
	buf.where, buf.defBlocks, buf.idf = where, defBlocks, idf
	for i := 1; i < len(phiStart); i++ {
		phiStart[i] += phiStart[i-1]
	}
	buf.placements = resize(buf.placements, len(where))
	placements := buf.placements
	for _, at := range where {
		// Renaming adds one edge per distinct reachable predecessor.
		x := vars[at.v]
		phi := ir.NewPhiSized(x.Name, x.Type, dt.NumPreds(f.Blocks[at.block]))
		placements[phiStart[at.block+1]] = placedPhi{v: at.v, phi: phi}
		phiStart[at.block+1]++
	}
	phisOf := func(b *ir.Block) []placedPhi { return placements[phiStart[b.Index()]:phiStart[b.Index()+1]] }
	// Each block takes its phis in one splice, the last variable's first
	// (the order one InsertAtFront per phi used to leave).
	front := buf.front
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
	buf.front = front

	// Renaming walk over the dominator tree, a block's children last to
	// first. r holds every variable's reaching value at the walk's
	// position; what a block overwrites is logged, and undone once its
	// subtree is finished, so that its siblings start from their parent's
	// values as it did.
	r := &buf.r
	r.vals, r.undo = resize(r.vals, len(vars)), r.undo[:0]
	for v, x := range vars {
		r.vals[v] = ir.NewUndef(x.Type)
	}
	stack := append(buf.stack[:0], ssaFrame{b: f.Entry()})
	for len(stack) > 0 {
		fr := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if fr.b == nil {
			for ; len(r.undo) > fr.mark; r.undo = r.undo[:len(r.undo)-1] {
				last := r.undo[len(r.undo)-1]
				r.vals[last.v] = last.val
			}
			continue
		}
		mark := len(r.undo)
		for _, p := range phisOf(fr.b) {
			r.Set(int(p.v), p.phi)
		}
		visit(fr.b, r)
		// Add successor phi edges once per predecessor block: a branch with
		// both edges to the same block contributes a single incoming entry,
		// matching Preds() dedup semantics. The block's use list is grown
		// once, for the edges of all its distinct successors: a first pass
		// counts them, a second (under a fresh tag) adds them.
		if t := fr.b.Term(); t != nil {
			tag++
			edges := 0
			for _, op := range t.Operands() {
				if s, ok := op.(*ir.Block); ok && lastSeen[s.Index()] != tag {
					lastSeen[s.Index()] = tag
					edges += len(phisOf(s))
				}
			}
			ir.ReserveUses(fr.b, edges)
			tag++
			for _, op := range t.Operands() {
				if s, ok := op.(*ir.Block); ok && lastSeen[s.Index()] != tag {
					lastSeen[s.Index()] = tag
					for _, p := range phisOf(s) {
						p.phi.AddIncoming(r.vals[p.v], fr.b)
					}
				}
			}
		}
		if len(r.undo) > mark {
			stack = append(stack, ssaFrame{mark: mark})
		}
		for _, child := range dt.Children(fr.b) {
			stack = append(stack, ssaFrame{b: child})
		}
	}
	buf.stack = stack
}

// SSABuffers is BuildSSA's working memory: the dominance frontier, the
// phi placement tables, the reaching values and the walk's stack. It
// grows to the largest body it has served.
type SSABuffers struct {
	df             analysis.DomFrontier
	slab           []int32 // phiStart and lastSeen
	where          []phiSite
	placements     []placedPhi
	defBlocks, idf []*ir.Block
	front          []*ir.Instruction
	r              Reaching
	stack          []ssaFrame
}

// Clear drops every pointer buf holds into the bodies it served,
// keeping the storage: buffers kept across bodies must not keep a dead
// one alive.
func (buf *SSABuffers) Clear() {
	buf.df.Clear()
	clear(buf.placements[:cap(buf.placements)])
	clear(buf.defBlocks[:cap(buf.defBlocks)])
	clear(buf.idf[:cap(buf.idf)])
	clear(buf.front[:cap(buf.front)])
	clear(buf.r.vals[:cap(buf.r.vals)])
	clear(buf.r.undo[:cap(buf.r.undo)])
	clear(buf.stack[:cap(buf.stack)])
}

// phiSite is a phi BuildSSA places: variable v's, in block number block.
type phiSite struct{ block, v int32 }

// placedPhi is a placed phi and its variable.
type placedPhi struct {
	v   int32
	phi *ir.Instruction
}

// ssaFrame is one entry of BuildSSA's walk: a block to visit, or (b nil)
// the end of the subtree that logged undo[mark:].
type ssaFrame struct {
	b    *ir.Block
	mark int
}

// resize returns a slice of length n, reusing s's array when it is large
// enough; the contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
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
	s := newScratch(f, dt)
	return removeTrivialPhis(&s)
}

// removeTrivialPhis sweeps the blocks due until a sweep removes nothing
// or nothing is left to remove.
func removeTrivialPhis(s *scratch) int {
	removed := 0
	for {
		before := removed
		for _, b := range s.f.Blocks {
			if !due(passTrivialPhis, b, s) {
				continue
			}
			clean(passTrivialPhis, b)
			for i := 0; i < b.Len() && b.Instrs()[i].Op() == ir.OpPhi; {
				phi := b.Instrs()[i]
				unique, ok := trivialPhiValue(phi, s)
				if !ok {
					i++
					continue
				}
				ir.ReplaceAllUsesWith(phi, unique)
				b.Erase(phi)
				removed++
			}
		}
		if removed == before || settled(s, passTrivialPhis) {
			return removed
		}
	}
}

// trivialPhiValue returns the value a redundant phi may be replaced by.
// s answers dominance, when it comes to that.
func trivialPhiValue(phi *ir.Instruction, s *scratch) (ir.Value, bool) {
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
			} else if !s.domTree().StrictlyDominates(def.Parent(), b) {
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
