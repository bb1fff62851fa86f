package core

import (
	"cmp"
	"slices"

	"repro/internal/analysis"
	"repro/internal/ir"
	"repro/internal/transform"
)

// repairSSA restores the dominance property of the merged function
// (§4.3) and applies phi-node coalescing (§4.4).
//
// Interweaving the members' control flow leaves some definitions no
// longer dominating their uses (Figure 13a). Following the paper, each
// offending definition is demoted to a fresh stack slot (store after
// the definition, load at each offending use) and the standard SSA
// construction algorithm — our Mem2Reg register promotion — re-promotes
// the slots, placing phi-nodes exactly where needed. Loads on paths with
// no reaching store become undef, playing the role of the paper's
// pseudo-definition at the entry.
//
// Phi-node coalescing assigns one shared slot to a class of *disjoint*
// definitions (each exclusive to a different member, same type) instead
// of one slot each. All arms of a fid-indexed resolution over the class
// then load the same slot, so the selection folds away along with the
// redundant phis — exactly Figure 14b, generalized from pairs to up to
// k defs per slot. Classes are grown greedily by descending user-block
// overlap.
func (g *generator) repairSSA() {
	promoteAndFold(g.merged, g.demoteOffenders())
}

// demoteOffenders is the first half of repairSSA: every definition that
// does not dominate all its uses goes through a stack slot, coalesced
// with the disjoint definitions of its class. It returns the dominator
// tree of the body it leaves.
func (g *generator) demoteOffenders() *analysis.DomTree {
	f := g.merged
	// The one dominator tree of this merged body: repair's stores and
	// loads, register promotion and the phi/select folds all leave the CFG
	// alone, so it is rebuilt only if an invoke's normal edge gets split.
	dt := analysis.NewDomTree(f)

	// An offense is one operand slot its definition does not dominate.
	// Offending definitions are numbered in discovery order (defs), and
	// ordinal finds a definition's number through the merged body's own
	// value numbering (0 = not offending, else number+1) — valid for this
	// scan, which rewrites nothing.
	type offense struct {
		def  int32
		user *ir.Instruction
		idx  int
	}
	var (
		defs     []*ir.Instruction
		offenses []offense
		num      = NewNumbering(f)
		ordinal  = make([]int32, num.size)
	)
	for _, b := range f.Blocks {
		for _, in := range b.Instrs() {
			for i := 0; i < in.NumOperands(); i++ {
				def, ok := in.Operand(i).(*ir.Instruction)
				if !ok || dt.DominatesUse(def, in, i) {
					continue
				}
				o := &ordinal[num.of(def)]
				if *o == 0 {
					defs = append(defs, def)
					*o = int32(len(defs))
				}
				offenses = append(offenses, offense{def: *o - 1, user: in, idx: i})
			}
		}
	}
	if len(defs) == 0 {
		return dt
	}
	g.stats.RepairedDefs = len(defs)
	// Group the offenses by definition, discovery order kept within one:
	// definition d's are offenses[start[d]:start[d+1]].
	slices.SortStableFunc(offenses, func(x, y offense) int { return cmp.Compare(x.def, y.def) })
	start := make([]int32, len(defs)+1)
	for _, off := range offenses {
		start[off.def+1]++
	}
	for d := 1; d < len(start); d++ {
		start[d] += start[d-1]
	}

	// One load per offending use site, found again by a scan of the
	// class's few loads, so that a fid-indexed resolution whose arms
	// belong to the same class receives the same load repeatedly and
	// folds away.
	type reload struct {
		at *ir.Block       // for a phi use: the incoming block the load ends
		by *ir.Instruction // otherwise: the user the load precedes
		ld *ir.Instruction
	}
	var reloads []reload

	entry := f.Entry()
	for _, class := range g.coalesce(defs) {
		slot := ir.NewAlloca("ssa.slot", defs[class[0]].Type())
		entry.InsertAtFront(slot)
		// One store after each definition in the class.
		for _, d := range class {
			def := defs[d]
			st := ir.NewStore(def, slot)
			if def.Op() == ir.OpInvoke {
				nb := transform.SplitInvokeNormalEdge(def)
				nb.InsertAtFront(st)
				dt = nil
			} else if def.IsTerminator() {
				panic("core: repairing a terminator value")
			} else {
				def.Parent().InsertAfter(st, def)
			}
		}
		reloads = reloads[:0]
		for _, d := range class {
			for _, off := range offenses[start[d]:start[d+1]] {
				var site reload
				if off.user.Op() == ir.OpPhi {
					site.at = off.user.IncomingBlock(off.idx / 2)
				} else {
					site.by = off.user
				}
				for _, r := range reloads {
					if r.at == site.at && r.by == site.by {
						site.ld = r.ld
						break
					}
				}
				if site.ld == nil {
					site.ld = ir.NewLoad("ssa.reload", slot)
					if site.at != nil {
						site.at.InsertBefore(site.ld, site.at.Term())
					} else {
						site.by.Parent().InsertBefore(site.ld, site.by)
					}
					reloads = append(reloads, site)
				}
				off.user.SetOperand(off.idx, site.ld)
			}
		}
	}
	if dt == nil {
		dt = analysis.NewDomTree(f)
	}
	return dt
}

// promoteAndFold is the second half of repairSSA: it re-promotes the
// repair and landingpad slots of f (standard SSA construction) and folds
// the selects/phis that coalescing made redundant. Nothing here alters
// the CFG, so the dominator tree dt of f serves promotion and the whole
// fixpoint loop.
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

// slotClass is one coalescing class under construction: defs from
// pairwise-distinct members (the disjointness invariant), tracked by a
// member bitmask.
type slotClass struct {
	defs    []int
	members uint64
	dead    bool // absorbed into an earlier class
}

// coalesce partitions the offending definitions into slot classes, each
// a list of indices into defs. With PhiCoalescing disabled every
// definition gets its own class. Otherwise definitions exclusive to
// distinct members (equal types) are grouped greedily by descending
// user-block overlap — for two members exactly the paper's disjoint
// pairing, beyond two a class may collect one def per member (Figure 15
// shows zero-overlap groupings are still worth coalescing).
func (g *generator) coalesce(defs []*ir.Instruction) [][]int {
	// Every class is a sub-slice of one backing array; a singleton is its
	// definition's own cell.
	cells := make([]int, len(defs))
	for d := range cells {
		cells[d] = d
	}
	single := func(d int) []int { return cells[d : d+1 : d+1] }
	// The member bitmask below caps coalescing at 64 members; families
	// that large get per-def slots (correct, just unoptimized).
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
	// other identifiers, so sharing its slot with another member's
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
	// usedIn[b.Index()] == mark says the definition being paired, number
	// mark-1, has a user in merged block b.
	usedIn := make([]int32, len(g.merged.Blocks))
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
					usedIn[u.User.Parent().Index()] = mark
				}
				for _, d1 := range byMember[mj] {
					if !ir.TypesEqual(defs[d0].Type(), defs[d1].Type()) {
						continue
					}
					ov := 0
					for _, u := range ir.UsesOf(defs[d1]) {
						if usedIn[u.User.Parent().Index()] == mark {
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
		// growth (the acceptance order drives slot creation order).
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
