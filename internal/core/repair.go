package core

import (
	"cmp"
	"math"
	"slices"
	"sync"

	"repro/internal/analysis"
	"repro/internal/ir"
	"repro/internal/transform"
)

// repairSSA restores the dominance property of the merged function
// (§4.3) and applies phi-node coalescing (§4.4).
//
// Interweaving the members' control flow leaves some definitions no
// longer dominating their uses (Figure 13a). The paper demotes each
// offending definition to a stack slot (a store after the definition, a
// load at each offending use) and re-runs standard SSA construction on
// the slots; that round trip is kept as the specification in
// repair_spec_test.go. Here the same SSA is built directly, without the
// memory: each class of offending definitions is one variable, its phis
// go at the iterated dominance frontier of its definition blocks —
// pruned to the blocks where the variable is live-in, so no phi is made
// that no use can reach — and one dominator-tree walk rewrites every
// offending operand to the definition reaching it. A use no definition
// reaches reads undef, the paper's pseudo-definition at the entry.
//
// Phi-node coalescing makes one variable of a class of *disjoint*
// definitions (each exclusive to a different member, same type) instead
// of one each. All arms of a fid-indexed resolution over the class then
// read the same variable, so the selection folds away along with the
// redundant phis — exactly Figure 14b, generalized from pairs to up to k
// defs per class. Classes are grown greedily by descending user-block
// overlap.
func (g *generator) repairSSA() {
	f := g.merged
	// The one dominator tree of this merged body: repair, register
	// promotion and the phi/select folds all leave the CFG alone, so it is
	// rebuilt only if an invoke's normal edge gets split.
	dt := analysis.NewDomTree(f)
	s := ssaPool.Get().(*ssaScratch)
	defs, offenses := s.findOffenses(g, dt)
	if len(defs) > 0 {
		g.stats.RepairedDefs = len(defs)
		nblocks := len(f.Blocks)
		dt = s.buildSSA(f, dt, defs, g.coalesce(defs, s), offenses)
		g.nameNormalEdges(nblocks)
	}
	s.release()
	promoteAndFold(f, dt)
}

// nameNormalEdges names each block that repair put on an invoke's normal
// edge — those from f.Blocks[from] on — after the invoke's row, as when
// every row had a block of its own: its row's name, ".phi" if a diamond
// moved the invoke into its join, then ".normal".
func (g *generator) nameNormalEdges(from int) {
	if len(g.merged.Blocks) == from {
		return
	}
	for i := range g.order {
		gi := &g.order[i]
		if gi.in.Op() != ir.OpInvoke || gi.in.NormalDest().Index() < from {
			continue
		}
		name := rowName(gi)
		if gi.dia != nil {
			name += ".phi"
		}
		gi.in.NormalDest().SetName(name + ".normal")
	}
}

// An offense is one operand slot its definition does not dominate:
// operand idx of user, whose definition is defs[def].
type offense struct {
	def  int32
	user *ir.Instruction
	idx  int
}

// findOffenses lists the definitions of g's body that do not dominate
// all their uses, in discovery order, and every operand slot they fail to
// dominate. Both lists live in s. Instructions are visited by row number
// (numberRows) — the order a scan of one block per row met them in — so
// that the definitions, and with them the classes and their phis, come
// in the order they always did.
func (s *ssaScratch) findOffenses(g *generator, dt *analysis.DomTree) (defs []*ir.Instruction, offenses []offense) {
	f := g.merged
	s.numberRows(g)
	// ordinal finds a definition's number through f's own value numbering
	// (0 = not offending, else number+1) — valid for this scan, which
	// rewrites nothing.
	s.ordinal = resize(s.ordinal, s.num.size)
	clear(s.ordinal)
	// The instructions grouped by row number with a counting pass, block
	// order kept within a row number — a CSR filled as in
	// analysis.csrStarts.
	s.rowStart = resize(s.rowStart, g.rowBlocks()+2)
	clear(s.rowStart)
	instrRows := s.rowNum[s.num.instrBase[0]:]
	for _, n := range instrRows {
		s.rowStart[n+2]++
	}
	for i := 1; i < len(s.rowStart); i++ {
		s.rowStart[i] += s.rowStart[i-1]
	}
	s.visit = resize(s.visit, len(instrRows))
	for _, b := range f.Blocks {
		for _, in := range b.Instrs() {
			at := &s.rowStart[s.rowOf(in)+1]
			s.visit[*at] = in
			*at++
		}
	}
	defs, offenses = s.defs[:0], s.offenses[:0]
	for _, in := range s.visit {
		for i := 0; i < in.NumOperands(); i++ {
			def, ok := in.Operand(i).(*ir.Instruction)
			if !ok || dt.DominatesUse(def, in, i) {
				continue
			}
			o := &s.ordinal[s.num.of(def)]
			if *o == 0 {
				defs = append(defs, def)
				*o = int32(len(defs))
			}
			offenses = append(offenses, offense{def: *o - 1, user: in, idx: i})
		}
	}
	s.defs, s.offenses = defs, offenses
	return defs, offenses
}

// numberRows numbers g's body (s.num) and gives every instruction its row
// number (s.rowNum, read through rowOf): the blockNumber of the block it
// would be in if every alignment row had a block of its own. Anchors fix
// it — a row's instruction has its row's number, or its diamond join's
// once a diamond moved it, and a diamond's dispatch has the row's number
// — and the rest follows from where an instruction sits among them: a
// phi has its block's number (a label's phis are its row's), an
// instruction before an anchor has the anchor's (selects and reloads go
// right before their user), one after the block's last anchor has that
// anchor's (a run's closing dispatch, and what goes before it, belongs to
// its last row), and an instruction of a block without anchors — the
// entry, and the selection, arm and landing blocks — has the block's.
func (s *ssaScratch) numberRows(g *generator) {
	f := g.merged
	s.num = numberInto(f, s.num.instrBase)
	s.rowNum = resize(s.rowNum, s.num.size)
	for i := range s.rowNum {
		s.rowNum[i] = -1
	}
	for i := range g.order {
		gi := &g.order[i]
		n := gi.row
		if gi.dia != nil {
			s.rowNum[s.num.of(gi.dia.dispatch)] = gi.row
			n = g.blockNumber(gi.dia.join)
		}
		s.rowNum[s.num.of(gi.in)] = n
	}
	for _, b := range f.Blocks {
		base := g.blockNumber(b)
		rn := s.rowNum[s.num.instrBase[b.Index()]:][:b.Len()]
		from := len(b.Phis())
		for i := range rn[:from] {
			rn[i] = base
		}
		last := base
		for i := from; i < len(rn); i++ {
			if rn[i] >= 0 {
				last = rn[i]
				for w := from; w < i; w++ {
					rn[w] = last
				}
				from = i + 1
			}
		}
		for w := from; w < len(rn); w++ {
			rn[w] = last
		}
	}
}

// rowOf returns in's row number; s must have numbered in's function
// since it was last rewritten.
func (s *ssaScratch) rowOf(in *ir.Instruction) int32 { return s.rowNum[s.num.of(in)] }

// promoteAndFold finishes repairSSA: it promotes the slots left in f —
// the landingpads' — and folds the selects/phis that coalescing made
// redundant. Nothing here alters the CFG, so the dominator tree dt of f
// serves promotion and the whole fixpoint loop.
func promoteAndFold(f *ir.Function, dt *analysis.DomTree) {
	transform.Mem2RegWithDom(f, dt)
	for {
		n := transform.RemoveDuplicatePhis(f)
		n += transform.FoldInstructions(f)
		n += transform.RemoveTrivialPhis(f, dt)
		if n == 0 {
			return
		}
	}
}

// buildSSA puts f back into SSA form over the offending definitions
// defs, partitioned into classes (indices into defs; each class is one
// variable), given every operand slot that reads one of them from a
// place its definition does not dominate. dt is f's dominator tree; the
// tree returned is f's afterwards, dt itself unless an invoke's normal
// edge had to be split. It then removes the trivial phis, as register
// promotion does.
//
// The result is what demoting every class to a stack slot and promoting
// the slots again (transform.Mem2RegWithDom) gives, minus the phis no use
// can reach: both place and rename through transform.BuildSSA, so the
// phis keep the slot's name, sizing, order (class order, at the block
// front) and incoming-edge order.
func (s *ssaScratch) buildSSA(f *ir.Function, dt *analysis.DomTree, defs []*ir.Instruction, classes [][]int, offenses []offense) *analysis.DomTree {
	// Class c is variable n-1-c. BuildSSA puts a block's phis at its front
	// last variable first, so they come in class order, and adds edges to
	// them in reverse class order: what promoting the slots did, whose
	// allocas each went to the front of the entry, the last class's first.
	n := len(classes)
	// An invoke's value exists only on its normal edge, so it is defined
	// from the start of a block split into that edge. Splitting retargets
	// phis, so every invoke is split before any phi's incoming block is
	// read.
	s.defBlock = resize(s.defBlock, len(defs))
	s.varOf = resize(s.varOf, len(defs))
	s.vars = resize(s.vars, n)
	s.varDefs = s.varDefs[:0]
	split := false
	for c, class := range classes {
		start := len(s.varDefs)
		for _, d := range class {
			def := defs[d]
			s.varOf[d] = int32(n - 1 - c)
			switch {
			case def.Op() == ir.OpInvoke:
				s.defBlock[d] = transform.SplitInvokeNormalEdge(def)
				split = true
			case def.IsTerminator():
				panic("core: repairing a terminator value")
			default:
				s.defBlock[d] = def.Parent()
			}
			s.varDefs = append(s.varDefs, s.defBlock[d])
		}
		s.vars[n-1-c] = transform.SSAVar{Name: "ssa.slot", Type: defs[class[0]].Type(), Defs: s.varDefs[start:len(s.varDefs):len(s.varDefs)]}
	}
	if split {
		dt = analysis.NewDomTree(f)
	}
	nblocks := len(f.Blocks)

	// The events of each block — definitions, and uses of the variables
	// at offending operand slots — ordered by where they happen: an
	// invoke's definition first, then by position (a user reads before it
	// defines), then the phi operands read at the block's end. Uses in
	// unreachable code read undef at once.
	s.raw = s.raw[:0]
	for d, def := range defs {
		if b := s.defBlock[d]; dt.IsReachable(b) {
			at := int32(2*def.Index() + 1)
			if def.Op() == ir.OpInvoke {
				at = -1
			}
			s.raw = append(s.raw, ssaEvent{block: int32(b.Index()), at: at, v: s.varOf[d], idx: -1, in: def})
		}
	}
	for _, off := range offenses {
		v := s.varOf[off.def]
		b, at := off.user.Parent(), int32(2*off.user.Index())
		if off.user.Op() == ir.OpPhi {
			b, at = off.user.IncomingBlock(off.idx/2), math.MaxInt32
		}
		if !dt.IsReachable(b) {
			off.user.SetOperand(off.idx, ir.NewUndef(s.vars[v].Type))
			continue
		}
		s.raw = append(s.raw, ssaEvent{block: int32(b.Index()), at: at, v: v, idx: int32(off.idx), in: off.user})
	}
	// Grouped by block with a counting pass — block b's are
	// events[evStart[b]:evStart[b+1]], a CSR filled as in
	// analysis.csrStarts — then put in order within each block, where
	// there are few.
	s.evStart = resize(s.evStart, nblocks+2)
	clear(s.evStart)
	for _, e := range s.raw {
		s.evStart[e.block+2]++
	}
	for i := 1; i < len(s.evStart); i++ {
		s.evStart[i] += s.evStart[i-1]
	}
	s.events = resize(s.events, len(s.raw))
	for _, e := range s.raw {
		s.events[s.evStart[e.block+1]] = e
		s.evStart[e.block+1]++
	}
	eventsOf := func(b *ir.Block) []ssaEvent { return s.events[s.evStart[b.Index()]:s.evStart[b.Index()+1]] }
	for _, b := range f.Blocks {
		if evs := eventsOf(b); len(evs) > 1 {
			slices.SortStableFunc(evs, func(x, y ssaEvent) int { return cmp.Compare(x.at, y.at) })
		}
	}

	// Liveness of every variable at once, one bitset row of w words per
	// block: a block defines a variable if it holds one of its
	// definitions, and reads it on entry if a use comes before any such
	// definition. A backward fixpoint in postorder then gives the
	// variables live at each block's entry, where alone a phi can be
	// reached by a use.
	w := (n + 63) / 64
	s.bits = resize(s.bits, 3*nblocks*w+w)
	clear(s.bits)
	defines, reads, live, out := s.bits[:nblocks*w], s.bits[nblocks*w:2*nblocks*w], s.bits[2*nblocks*w:3*nblocks*w], s.bits[3*nblocks*w:]
	for bi, b := range f.Blocks {
		for _, e := range eventsOf(b) {
			word, bit := bi*w+int(e.v/64), uint64(1)<<(e.v%64)
			if e.idx < 0 {
				defines[word] |= bit
			} else if defines[word]&bit == 0 {
				reads[word] |= bit
			}
		}
	}
	rpo := dt.RPO()
	for changed := true; changed; {
		changed = false
		for i := len(rpo) - 1; i >= 0; i-- {
			b := rpo[i]
			clear(out)
			if t := b.Term(); t != nil {
				for _, op := range t.Operands() {
					if succ, ok := op.(*ir.Block); ok {
						for x, word := range live[succ.Index()*w:][:w] {
							out[x] |= word
						}
					}
				}
			}
			at := b.Index() * w
			for x := range out {
				in := reads[at+x] | out[x]&^defines[at+x]
				if in != live[at+x] {
					live[at+x] = in
					changed = true
				}
			}
		}
	}

	isLive := func(v int, b *ir.Block) bool { return live[b.Index()*w+v/64]&(1<<(v%64)) != 0 }
	transform.BuildSSA(f, dt, s.vars, isLive, func(b *ir.Block, r *transform.Reaching) {
		for _, e := range eventsOf(b) {
			if e.idx < 0 {
				r.Set(int(e.v), e.in)
			} else {
				e.in.SetOperand(int(e.idx), r.Get(int(e.v)))
			}
		}
	})
	transform.RemoveTrivialPhis(f, dt)
	return dt
}

// ssaEvent is a definition of variable v (idx < 0; in is the
// definition) or a use of it at operand idx of in, in merged block block
// at position at.
type ssaEvent struct {
	block, at, v, idx int32
	in                *ir.Instruction
}

// ssaScratch is repair's working memory. Every trial body needs it for
// an instant, so repairSSA takes it from a pool rather than allocating
// it per body.
type ssaScratch struct {
	num                       Numbering
	rowNum, rowStart, ordinal []int32
	visit, defs               []*ir.Instruction
	offenses                  []offense
	varOf, evStart            []int32
	bits                      []uint64
	defBlock, varDefs         []*ir.Block
	vars                      []transform.SSAVar
	raw, events               []ssaEvent
}

var ssaPool = sync.Pool{New: func() any { return new(ssaScratch) }}

// release returns s to the pool without the pointers into the body it
// served: a pooled slice must not keep a discarded trial body alive. Each
// slice ends a call at its high-water mark, so clearing to its length
// clears all it was ever given.
func (s *ssaScratch) release() {
	clear(s.visit)
	clear(s.defs)
	clear(s.offenses)
	clear(s.defBlock)
	clear(s.varDefs)
	clear(s.vars)
	clear(s.raw)
	clear(s.events)
	ssaPool.Put(s)
}

// resize returns a slice of length n, reusing s's array when it is large
// enough; the contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// slotClass is one coalescing class under construction: defs from
// pairwise-distinct members (the disjointness invariant), tracked by a
// member bitmask.
type slotClass struct {
	defs    []int
	members uint64
	dead    bool // absorbed into an earlier class
}

// coalesce partitions the offending definitions into classes, each a
// list of indices into defs. With PhiCoalescing disabled every
// definition gets its own class. Otherwise definitions exclusive to
// distinct members (equal types) are grouped greedily by descending
// user-block overlap — for two members exactly the paper's disjoint
// pairing, beyond two a class may collect one def per member (Figure 15
// shows zero-overlap groupings are still worth coalescing).
func (g *generator) coalesce(defs []*ir.Instruction, s *ssaScratch) [][]int {
	// Every class is a sub-slice of one backing array; a singleton is its
	// definition's own cell.
	cells := make([]int, len(defs))
	for d := range cells {
		cells[d] = d
	}
	single := func(d int) []int { return cells[d : d+1 : d+1] }
	// The member bitmask below caps coalescing at 64 members; families
	// that large get per-def classes (correct, just unoptimized).
	if !g.opts.PhiCoalescing || g.k > 64 {
		out := make([][]int, len(defs))
		for d := range defs {
			out[d] = single(d)
		}
		return out
	}
	// A definition is exclusive to one member only if its *block*
	// executes solely under that member's identifier. Block exclusivity
	// is what guarantees disjointness: a phi copied from one member into
	// a matched-label block still executes (with undef inputs) under
	// other identifiers, so sharing its variable with another member's
	// definition would clobber the live value.
	side := func(d *ir.Instruction) int {
		b := d.Parent()
		owner := -1
		for j := 0; j < g.k; j++ {
			if g.originOf(j, b) == nil {
				continue
			}
			if owner >= 0 {
				return -1 // shared block: executes for several members
			}
			owner = j
		}
		return owner // -1 for generator-introduced blocks too
	}
	byMember := make([][]int, g.k)
	memberOf := make([]int, len(defs))
	var shared []int
	for d, def := range defs {
		if s := side(def); s >= 0 {
			byMember[s] = append(byMember[s], d)
			memberOf[d] = s
		} else {
			shared = append(shared, d)
		}
	}
	// usedIn[n] == mark says the definition being paired, number mark-1,
	// has a user of row number n: overlap counts users' blocks as if every
	// row had one (numberRows), the blocks it always counted.
	usedIn := make([]int32, g.rowBlocks())
	type cand struct {
		a, b    int
		overlap int
	}
	// A candidate is a pair of definitions from two different members that
	// agree on their type. They are counted before they are collected, so
	// the list is allocated once.
	ncands := 0
	for mi := 0; mi < g.k; mi++ {
		for mj := mi + 1; mj < g.k; mj++ {
			for _, d0 := range byMember[mi] {
				for _, d1 := range byMember[mj] {
					if ir.TypesEqual(defs[d0].Type(), defs[d1].Type()) {
						ncands++
					}
				}
			}
		}
	}
	cands := make([]cand, 0, ncands)
	for mi := 0; mi < g.k; mi++ {
		for mj := mi + 1; mj < g.k; mj++ {
			for _, d0 := range byMember[mi] {
				mark := int32(d0) + 1
				for _, u := range ir.UsesOf(defs[d0]) {
					usedIn[s.rowOf(u.User)] = mark
				}
				for _, d1 := range byMember[mj] {
					if !ir.TypesEqual(defs[d0].Type(), defs[d1].Type()) {
						continue
					}
					ov := 0
					for _, u := range ir.UsesOf(defs[d1]) {
						if usedIn[s.rowOf(u.User)] == mark {
							ov++
						}
					}
					cands = append(cands, cand{a: d0, b: d1, overlap: ov})
				}
			}
		}
	}
	// Greedy maximum-overlap matching (stable order for determinism).
	slices.SortStableFunc(cands, func(x, y cand) int { return cmp.Compare(y.overlap, x.overlap) })
	classOf := make([]*slotClass, len(defs))
	var accepted []*slotClass
	classFor := func(d int) *slotClass {
		if c := classOf[d]; c != nil {
			return c
		}
		return &slotClass{defs: single(d), members: 1 << uint(memberOf[d])}
	}
	for _, c := range cands {
		ca, cb := classFor(c.a), classFor(c.b)
		if ca == cb || ca.members&cb.members != 0 {
			continue
		}
		// Merge cb into ca; record ca as a multi-def class on its first
		// growth (the acceptance order drives class order).
		wasSingleton := len(ca.defs) == 1 && classOf[c.a] == nil
		ca.defs = append(ca.defs, cb.defs...)
		ca.members |= cb.members
		cb.dead = true
		for _, d := range cb.defs {
			classOf[d] = ca
		}
		classOf[c.a] = ca
		if wasSingleton {
			accepted = append(accepted, ca)
		}
		g.stats.CoalescedPairs++
	}
	var classes [][]int
	for _, c := range accepted {
		if !c.dead {
			classes = append(classes, c.defs)
		}
	}
	for j := 0; j < g.k; j++ {
		for _, d := range byMember[j] {
			if classOf[d] == nil {
				classes = append(classes, single(d))
			}
		}
	}
	for _, d := range shared {
		classes = append(classes, single(d))
	}
	return classes
}
