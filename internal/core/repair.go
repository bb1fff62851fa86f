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
	s := ssaPool.Get().(*ssaScratch)
	// The one dominator tree of this merged body, in s's storage: repair,
	// register promotion and the phi/select folds all leave the CFG alone,
	// so it is rebuilt only if an invoke's normal edge gets split.
	dt := &s.dt
	dt.Rebuild(f)
	defs, offenses := s.findOffenses(g, dt)
	if len(defs) > 0 {
		g.stats.RepairedDefs = len(defs)
		nblocks := len(f.Blocks)
		s.buildSSA(f, dt, defs, g.coalesce(defs, s), offenses)
		g.nameNormalEdges(nblocks)
	}
	promoteAndFold(f, dt, &s.ssa)
	s.release()
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
	s.num = NumberInto(f, s.num.instrBase)
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
// serves promotion and the whole fixpoint; buf is promotion's SSA
// construction memory.
func promoteAndFold(f *ir.Function, dt *analysis.DomTree, buf *transform.SSABuffers) {
	transform.Mem2RegWithDom(f, dt, buf)
	transform.FoldFixpoint(f, dt)
}

// buildSSA puts f back into SSA form over the offending definitions
// defs, partitioned into classes (indices into defs; each class is one
// variable), given every operand slot that reads one of them from a
// place its definition does not dominate. dt is f's dominator tree, and
// still is afterwards: splitting an invoke's normal edge rebuilds it in
// place. It then removes the trivial phis, as register promotion does.
//
// The result is what demoting every class to a stack slot and promoting
// the slots again (transform.Mem2RegWithDom) gives, minus the phis no use
// can reach: both place and rename through transform.BuildSSA, so the
// phis keep the slot's name, sizing, order (class order, at the block
// front) and incoming-edge order.
func (s *ssaScratch) buildSSA(f *ir.Function, dt *analysis.DomTree, defs []*ir.Instruction, classes [][]int, offenses []offense) {
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
		dt.Rebuild(f)
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
	}, &s.ssa)
	transform.RemoveTrivialPhis(f, dt)
}

// ssaEvent is a definition of variable v (idx < 0; in is the
// definition) or a use of it at operand idx of in, in merged block block
// at position at.
type ssaEvent struct {
	block, at, v, idx int32
	in                *ir.Instruction
}

// ssaScratch is repair's working memory: the offender scan's and SSA
// construction's tables, coalescing's, the body's dominator tree and
// transform.BuildSSA's buffers. Every trial body needs it for an instant,
// so repairSSA takes it from a pool rather than allocating it per body,
// and gives it back once the body is repaired and folded.
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
	dt                        analysis.DomTree
	ssa                       transform.SSABuffers

	// coalesce's tables; none points into the body.
	cands                                     []coalesceCand
	memberOf, memberStart, memberDefs, usedIn []int32
	useStart, useDefs, shared, touched        []int32
	classOf, next                             []int32
	slots                                     []slotClass
	cells                                     []int
	classes                                   [][]int
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
	s.dt.Clear()
	s.ssa.Clear()
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
// member bitmask. Its definitions are a list threaded through
// ssaScratch.next, from head to tail in the order they joined.
type slotClass struct {
	head, tail int32
	members    uint64
	dead       bool // absorbed into an earlier class
}

// coalesceCand is a pair of definitions coalescing may put in one class,
// and how many of the second's uses sit in rows the first's users do.
type coalesceCand struct {
	a, b    int32
	overlap int
}

// coalesce partitions the offending definitions into classes, each a
// list of indices into defs; the lists live in s. With PhiCoalescing
// disabled every definition gets its own class. Otherwise definitions
// exclusive to distinct members (equal types) are grouped greedily by
// descending user-block overlap — for two members exactly the paper's
// disjoint pairing, beyond two a class may collect one def per member
// (Figure 15 shows zero-overlap groupings are still worth coalescing).
//
// The greedy order is every type-equal pair from two members, in
// generation order — members mi < mj, then their definitions d0 and d1
// in order — stably sorted by overlap. Only the pairs that share a user
// row are listed and sorted; the rest, overlap 0, keep generation order
// at the tail, so a second sweep over the pairs in that order gives them
// the same test. It also meets the pairs the first pass tested, and
// fails them again: classes only merge and member masks only grow.
func (g *generator) coalesce(defs []*ir.Instruction, s *ssaScratch) [][]int {
	// Every class is a sub-slice of one backing array, s.cells.
	s.cells = resize(s.cells, len(defs))
	s.classes = s.classes[:0]
	at := 0
	emit := func(d int) {
		s.cells[at] = d
		s.classes = append(s.classes, s.cells[at:at+1:at+1])
		at++
	}
	// The member bitmask below caps coalescing at 64 members; families
	// that large get per-def classes (correct, just unoptimized).
	if !g.opts.PhiCoalescing || g.k > 64 {
		for d := range defs {
			emit(d)
		}
		return s.classes
	}
	// A definition is exclusive to one member only if its *block*
	// executes solely under that member's identifier. Block exclusivity
	// is what guarantees disjointness: a phi copied from one member into
	// a matched-label block still executes (with undef inputs) under
	// other identifiers, so sharing its variable with another member's
	// definition would clobber the live value.
	side := func(d *ir.Instruction) int32 {
		b := d.Parent()
		owner := int32(-1)
		for j := 0; j < g.k; j++ {
			if g.originOf(j, b) == nil {
				continue
			}
			if owner >= 0 {
				return -1 // shared block: executes for several members
			}
			owner = int32(j)
		}
		return owner // -1 for generator-introduced blocks too
	}
	// memberOf[d] is the member d is exclusive to, or -1; member j's
	// exclusive definitions, in order, are
	// memberDefs[memberStart[j]:memberStart[j+1]], a CSR filled as in
	// analysis.csrStarts.
	s.memberOf = resize(s.memberOf, len(defs))
	s.memberStart = resize(s.memberStart, g.k+2)
	clear(s.memberStart)
	n := 0
	for d, def := range defs {
		s.memberOf[d] = side(def)
		if mj := s.memberOf[d]; mj >= 0 {
			s.memberStart[mj+2]++
			n++
		}
	}
	for i := 1; i < len(s.memberStart); i++ {
		s.memberStart[i] += s.memberStart[i-1]
	}
	s.memberDefs = resize(s.memberDefs, n)
	for d, mj := range s.memberOf {
		if mj >= 0 {
			s.memberDefs[s.memberStart[mj+1]] = int32(d)
			s.memberStart[mj+1]++
		}
	}
	byMember := func(j int) []int32 { return s.memberDefs[s.memberStart[j]:s.memberStart[j+1]] }
	// Overlap counts users' blocks as if every row had one (numberRows),
	// the blocks it always counted. The exclusive definitions with a user
	// of row number r, once per such use, are
	// useDefs[useStart[r]:useStart[r+1]], a CSR filled as in
	// analysis.csrStarts: from d0's rows it gives the definitions d0
	// overlaps, and how much, without visiting the rest.
	rows := g.rowBlocks()
	s.useStart = resize(s.useStart, rows+2)
	clear(s.useStart)
	for _, d := range s.memberDefs {
		for _, u := range ir.UsesOf(defs[d]) {
			s.useStart[s.rowOf(u.User)+2]++
		}
	}
	for i := 1; i < len(s.useStart); i++ {
		s.useStart[i] += s.useStart[i-1]
	}
	s.useDefs = resize(s.useDefs, int(s.useStart[rows+1]))
	for _, d := range s.memberDefs {
		for _, u := range ir.UsesOf(defs[d]) {
			at := &s.useStart[s.rowOf(u.User)+1]
			s.useDefs[*at] = d
			*at++
		}
	}
	// The pairs that share a row, in generation order. usedIn[r] == mark
	// says row r was visited for the d0 being paired (one mark per d0 and
	// mj); shared[d1] counts d1's uses in d0's rows, for the definitions
	// listed in touched.
	s.usedIn = resize(s.usedIn, rows)
	clear(s.usedIn)
	s.shared = resize(s.shared, len(defs))
	clear(s.shared)
	mark := int32(0)
	s.cands = s.cands[:0]
	for mi := 0; mi < g.k; mi++ {
		for mj := int32(mi + 1); mj < int32(g.k); mj++ {
			for _, d0 := range byMember(mi) {
				mark++
				touched := s.touched[:0]
				for _, u := range ir.UsesOf(defs[d0]) {
					r := s.rowOf(u.User)
					if s.usedIn[r] == mark {
						continue
					}
					s.usedIn[r] = mark
					for _, d1 := range s.useDefs[s.useStart[r]:s.useStart[r+1]] {
						if s.memberOf[d1] != mj {
							continue
						}
						if s.shared[d1] == 0 {
							touched = append(touched, d1)
						}
						s.shared[d1]++
					}
				}
				slices.Sort(touched)
				for _, d1 := range touched {
					if ir.TypesEqual(defs[d0].Type(), defs[d1].Type()) {
						s.cands = append(s.cands, coalesceCand{a: d0, b: d1, overlap: int(s.shared[d1])})
					}
					s.shared[d1] = 0
				}
				s.touched = touched
			}
		}
	}
	// Greedy maximum-overlap matching (stable order for determinism).
	// classOf[d] is 1 + the index in s.slots of the class d has joined, 0
	// while d is a singleton; a definition's first growth makes it a
	// class, so the slots come in acceptance order, which is class order.
	slices.SortStableFunc(s.cands, func(x, y coalesceCand) int { return cmp.Compare(y.overlap, x.overlap) })
	s.classOf = resize(s.classOf, len(defs))
	clear(s.classOf)
	s.next = resize(s.next, len(defs))
	s.slots = s.slots[:0]
	members := func(d int32) uint64 {
		if c := s.classOf[d]; c > 0 {
			return s.slots[c-1].members
		}
		return 1 << uint(s.memberOf[d])
	}
	// join puts a and b in one class if they are in different ones whose
	// members are disjoint.
	join := func(a, b int32) {
		ca, cb := s.classOf[a], s.classOf[b]
		if ca > 0 && ca == cb || members(a)&members(b) != 0 {
			return
		}
		// Merge cb's definitions into ca, after its own.
		if ca == 0 {
			s.slots = append(s.slots, slotClass{head: a, tail: a, members: members(a)})
			ca = int32(len(s.slots))
			s.classOf[a], s.next[a] = ca, -1
		}
		into := &s.slots[ca-1]
		head, tail, mb := b, b, members(b)
		if cb == 0 {
			s.next[b] = -1
		} else {
			from := &s.slots[cb-1]
			head, tail = from.head, from.tail
			from.dead = true
		}
		s.next[into.tail] = head
		into.tail = tail
		into.members |= mb
		for d := head; d >= 0; d = s.next[d] {
			s.classOf[d] = ca
		}
		g.stats.CoalescedPairs++
	}
	for _, c := range s.cands {
		join(c.a, c.b)
	}
	// The sweep. A definition of mj whose class has a member of mi fails
	// with every d0, so a leading run of them is passed over for good, and
	// d0 meets no partner once its class has a member of mj.
	for mi := 0; mi < g.k; mi++ {
		for mj := mi + 1; mj < g.k; mj++ {
			d1s := byMember(mj)
			for _, d0 := range byMember(mi) {
				for len(d1s) > 0 && members(d1s[0])&(1<<uint(mi)) != 0 {
					d1s = d1s[1:]
				}
				for _, d1 := range d1s {
					if members(d0)&(1<<uint(mj)) != 0 {
						break
					}
					if ir.TypesEqual(defs[d0].Type(), defs[d1].Type()) {
						join(d0, d1)
					}
				}
			}
		}
	}
	for _, c := range s.slots {
		if c.dead {
			continue
		}
		from := at
		for d := c.head; d >= 0; d = s.next[d] {
			s.cells[at] = int(d)
			at++
		}
		s.classes = append(s.classes, s.cells[from:at:at])
	}
	for j := 0; j < g.k; j++ {
		for _, d := range byMember(j) {
			if s.classOf[d] == 0 {
				emit(int(d))
			}
		}
	}
	for d, mj := range s.memberOf {
		if mj < 0 {
			emit(d)
		}
	}
	return s.classes
}
