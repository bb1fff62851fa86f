package core

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/align"
	"repro/internal/ir"
)

// generator holds the state of one SalSSA merge over a family of k
// functions. Member index j refers to fns[j] throughout; for the
// historical two-member case the function identifier is an i1 whose
// true value selects member 0, beyond two it is the i32 member index.
type generator struct {
	m      *ir.Module
	fns    []*ir.Function
	k      int
	merged *ir.Function
	fid    *ir.Argument
	opts   Options
	stats  Stats
	// tables holds the arrays behind vmap, order, its tags, origin and
	// blockNum, and the rows the generator reads; taken from genPool and
	// given back by release.
	tables *genTables

	// num numbers each member's values densely for the run (the members
	// are read-only while it lasts), and vmap, keyed by those numbers,
	// maps original values (arguments, instructions, blocks) of each
	// member to their merged counterparts ("value mapping", §4.1.2); nil
	// marks a value not mapped yet.
	num  []Numbering
	vmap [][]ir.Value
	// origin maps merged blocks back to the original block they came
	// from, per member ("block mapping", §4.1.2): the entry for merged
	// block b and member j sits at b.Index()*k+j. Blocks are only ever
	// appended to the merged function while the generator runs, so the
	// table grows at its end.
	origin []*ir.Block
	// rows is the number of alignment rows, and blockNum[i] the row
	// number (see blockNumber) of the i-th block buildCFG made.
	rows     int
	blockNum []int32

	// padSlot maps original landingpad instructions with uses to the
	// entry alloca through which their value flows (§4.2.2: landing
	// blocks are created per invoke, so an original landingpad may have
	// several merged definitions; the slot + register promotion places
	// the phis). padSlotList keeps creation order for deterministic
	// placement. Both stay nil for functions without landingpads.
	padSlot     map[*ir.Instruction]*ir.Instruction
	padSlotList []*ir.Instruction
	// phis lists copied phis, with the member and original each came
	// from, in creation order for deterministic incoming-value
	// assignment.
	phis []copiedPhi
	// order lists generated instructions needing operand assignment.
	order []genInstr
	// fidEqs memoizes the per-member identifier tests (icmp eq fid, j),
	// hoisted into the entry block: one comparison per member serves
	// every select chain and two-way dispatch in the body, so a k-ary
	// divergence costs the same selects as the nested pairwise chain it
	// replaces. Allocated on first use (k >= 3 only).
	fidEqs []*ir.Instruction
}

type taggedInstr struct {
	member int
	orig   *ir.Instruction
}

// genInstr is one generated instruction awaiting operand assignment:
// until assignValueOperands and assignLabelOperands set them, its
// operands are unset.
type genInstr struct {
	in *ir.Instruction
	// tags records the original instruction of every member that
	// aligned onto in, in member order: one tag for exclusive code, two
	// or more for merged instructions.
	tags []taggedInstr
	// row is the row number of in's row: 1 + its index among the rows.
	row int32
	// dia memoizes the switch-fed-phi dispatch built for in's first
	// fid-varying operand (k >= 4 families), so further varying operands
	// of the same instruction add one phi to the shared join instead of
	// a second dispatch.
	dia *diamond
}

type copiedPhi struct {
	np *ir.Instruction
	taggedInstr
}

// diamond is one switch-fed-phi dispatch: arms[t] is the arm block of
// the instruction's t-th tag, join the block the phis and the
// instruction itself live in, dispatch the branch into the arms.
type diamond struct {
	arms     []*ir.Block
	join     *ir.Block
	dispatch *ir.Instruction
}

// Numbering numbers one function's values densely: arguments first,
// then blocks, then instructions in layout order. It reads the indices
// ir maintains, so it costs one slice and stays right for as long as the
// function is not rewritten; callers that meet the same function again
// and again (the planning funnel's profiles) keep one instead of
// rebuilding it per pair.
type Numbering struct {
	nargs int
	// instrBase[b.Index()] is the number of b's first instruction.
	instrBase []int32
	size      int
}

// NewNumbering numbers f's current body.
func NewNumbering(f *ir.Function) Numbering { return NumberInto(f, nil) }

// NumberInto is NewNumbering with the table in buf's array when it is
// large enough: len(f.Blocks) entries.
func NumberInto(f *ir.Function, buf []int32) Numbering {
	x := Numbering{nargs: len(f.Params()), instrBase: resize(buf, len(f.Blocks))}
	x.size = x.nargs + len(f.Blocks)
	for i, b := range f.Blocks {
		x.instrBase[i] = int32(x.size)
		x.size += b.Len()
	}
	return x
}

// ofEntry returns the number of an alignment entry of the numbered
// function: its label's or its instruction's.
func (x *Numbering) ofEntry(e *align.Entry) int {
	if e.IsLabel() {
		return x.nargs + e.Label.Index()
	}
	return x.of(e.Instr)
}

// of returns v's number; v must be an argument, block or instruction of
// the numbered function.
func (x *Numbering) of(v ir.Value) int {
	switch v := v.(type) {
	case *ir.Argument:
		return v.Index()
	case *ir.Block:
		return x.nargs + v.Index()
	case *ir.Instruction:
		return int(x.instrBase[v.Parent().Index()]) + v.Index()
	}
	panic(fmt.Sprintf("core: %T has no number", v))
}

// newGenerator starts the merge of fns into a new function name of m,
// working in t (from getTables), which the generator's release gives
// back.
func newGenerator(m *ir.Module, fns []*ir.Function, name string, plan *ParamPlan, opts Options, t *genTables) *generator {
	k := len(fns)
	g := &generator{m: m, fns: fns, k: k, opts: opts, tables: t}
	g.merged, g.fid = NewMergedShell(m, name, fns, plan)
	g.num = make([]Numbering, k)
	g.vmap = make([][]ir.Value, k)
	size := 0
	for j, f := range fns {
		g.num[j] = NewNumbering(f)
		size += g.num[j].size
	}
	// The pool hands the array back cleared: nil is "not mapped yet".
	t.vals = resize(t.vals, size)
	vals := t.vals
	for j, f := range fns {
		n := g.num[j].size
		g.vmap[j], vals = vals[:n:n], vals[n:]
		for i, p := range f.Params() {
			g.setMapped(j, p, g.merged.Param(plan.Maps[j][i]+1))
		}
	}
	return g
}

// genTables is one merge's working memory: the alignment rows the
// generator reads (alignFamilyCtx, pairItems) and the generator's own
// tables. Every trial body needs it only while it is aligned and
// generated, so a merge takes it from a pool (getTables) and gives it
// back once the body is generated (release), as repair does its
// ssaScratch.
type genTables struct {
	vals     []ir.Value
	order    []genInstr
	tags     []taggedInstr
	origin   []*ir.Block
	blockNum []int32

	// The rows, the next round's rows while a family is aligned, their
	// classes, the cells their entries are cut from, and a round's
	// skeleton and pairwise result.
	items, next          []famItem
	classes, nextClasses []int32
	ents                 []*align.Entry
	skel                 []align.Entry
	res                  align.Result
	// in interns a family's members, emptied for the next family.
	in *align.Interner
}

var genPool = sync.Pool{New: func() any { return new(genTables) }}

// getTables returns a merge's working memory, with every pointer-bearing
// array cleared.
func getTables() *genTables { return genPool.Get().(*genTables) }

// release returns g's tables to the pool (genTables.release). g must not
// be used afterwards.
func (g *generator) release() {
	t := g.tables
	t.order, t.origin, t.blockNum = g.order, g.origin, g.blockNum[:0]
	*g = generator{stats: g.stats}
	t.release()
}

// release returns t to the pool cleared: a pooled array must not keep a
// discarded trial body alive, and the next value map must start out all
// nil. Each array's length is as far as the merge wrote into it, and
// what lies beyond was cleared by an earlier release, so clearing to the
// length clears all of it — in proportion to this merge, not to the
// largest one the tables ever served.
func (t *genTables) release() {
	clear(t.vals)
	clear(t.order)
	clear(t.tags)
	clear(t.origin)
	clear(t.items)
	clear(t.next)
	clear(t.ents)
	clear(t.skel)
	t.res.Clear()
	if t.in != nil {
		t.in.Reset()
	}
	t.order, t.tags, t.origin = t.order[:0], t.tags[:0], t.origin[:0]
	genPool.Put(t)
}

// mapped returns the merged counterpart of member j's value v, or nil
// when none has been recorded.
func (g *generator) mapped(j int, v ir.Value) ir.Value { return g.vmap[j][g.num[j].of(v)] }

func (g *generator) setMapped(j int, v, mv ir.Value) { g.vmap[j][g.num[j].of(v)] = mv }

// originOf returns the original block of member j that merged block b
// stands for, or nil.
func (g *generator) originOf(j int, b *ir.Block) *ir.Block {
	if i := b.Index()*g.k + j; i < len(g.origin) {
		return g.origin[i]
	}
	return nil
}

func (g *generator) setOrigin(j int, b, ob *ir.Block) {
	if need := len(g.merged.Blocks) * g.k; need > len(g.origin) {
		g.origin = append(g.origin, make([]*ir.Block, need-len(g.origin))...)
	}
	g.origin[b.Index()*g.k+j] = ob
}

// fidBool reports whether the merged function dispatches on the
// historical i1 identifier (two members) rather than an integer index.
func (g *generator) fidBool() bool { return g.k == 2 }

// fidIs returns the i1 value that is true when the identifier selects
// member j: one icmp against the member index, hoisted into the entry
// block (which dominates every use) and shared by all users.
func (g *generator) fidIs(member int) ir.Value {
	if g.fidEqs == nil {
		g.fidEqs = make([]*ir.Instruction, g.k)
	}
	if c := g.fidEqs[member]; c != nil {
		return c
	}
	c := ir.NewICmp("fid.is", ir.PredEQ, g.fid, ir.NewConstInt(ir.I32, int64(member)))
	entry := g.merged.Entry()
	if t := entry.Term(); t != nil {
		entry.InsertBefore(c, t)
	} else {
		entry.Append(c)
	}
	g.fidEqs[member] = c
	return c
}

// run executes every phase of the SalSSA code generator, polling the
// context between phases so a long merge can be abandoned mid-build. The
// caller removes the partial function from the module on error.
func (g *generator) run(ctx context.Context, items []famItem) error {
	start := time.Now()
	g.createPadSlots()
	g.buildCFG(items)
	phases := []func(){
		g.assignValueOperands,
		g.assignLabelOperands,
		g.createLandingBlocks,
		g.assignPhiIncomings,
		func() { g.stats.BuildTime = time.Since(start) },
		g.repairSSA,
	}
	for _, phase := range phases {
		if err := ctx.Err(); err != nil {
			return err
		}
		phase()
	}
	g.stats.RepairTime = time.Since(start) - g.stats.BuildTime
	return nil
}

// createPadSlots allocates one slot per original landingpad whose value
// is used, before any operand resolution needs it.
func (g *generator) createPadSlots() {
	for j := 0; j < g.k; j++ {
		g.fns[j].Instrs(func(in *ir.Instruction) bool {
			if in.Op() == ir.OpLandingPad && ir.HasUses(in) {
				slot := ir.NewAlloca("lpslot", in.Type())
				if g.padSlot == nil {
					g.padSlot = map[*ir.Instruction]*ir.Instruction{}
				}
				g.padSlot[in] = slot
				g.padSlotList = append(g.padSlotList, slot)
				g.stats.PadSlots++
			}
			return true
		})
	}
}

// buildCFG is §4.1 with one merged block per straight-line run of
// alignment rows (fuseInto decides the runs): phis attached to labels,
// and each run closed by a dispatch to where its members continue, which
// keeps every original block's internal order. One block per row would
// chain a run's rows with unconditional branches that only Simplify's
// MergeStraightLineBlocks removes, after repair and folding paid for
// them.
//
// The body after Simplify is byte for byte the one-block-per-row body:
// a run's block is named after its first row, and a diamond's join and a
// split invoke edge after their instruction's row; the closing dispatches
// are appended in the order of their runs' last rows, as one block per
// row appended its branches, so every target's predecessor order is the
// same; and SSA repair reads row numbers where it used to read blocks
// (blockNumber, ssaScratch.numberRows).
func (g *generator) buildCFG(items []famItem) {
	into := g.fuseInto(items)
	entry := g.merged.NewBlockIn("entry")
	for _, slot := range g.padSlotList {
		entry.Append(slot)
	}
	// One slab holds every generated instruction's tags.
	instrRows, ntags, heads := 0, 0, 0
	for t, row := range items {
		if !row.ents[row.firstMember()].IsLabel() {
			instrRows++
			ntags += row.memberCount()
		}
		if into[t] < 0 {
			heads++
		}
	}
	t := g.tables
	g.order = slices.Grow(t.order[:0], instrRows)
	tagSlab := slices.Grow(t.tags[:0], ntags)
	// t keeps the tag slab as far as it gets written (genTables.release).
	defer func() { t.tags = tagSlab }()
	g.origin = slices.Grow(t.origin[:0], (1+heads)*g.k) // the entry and a block per run
	g.rows = len(items)
	g.blockNum = append(slices.Grow(t.blockNum[:0], 1+heads), 0) // the entry is row number 0
	// Exclusive rows are named after their member.
	labelPrefix := make([]string, g.k)
	instrName := make([]string, g.k)
	for j := range labelPrefix {
		labelPrefix[j] = "f" + strconv.Itoa(j+1) + "."
		instrName[j] = "i" + strconv.Itoa(j+1)
	}
	for t, row := range items {
		first := row.firstMember()
		e := row.ents[first]
		merged := row.memberCount() >= 2
		var b *ir.Block
		switch {
		case into[t] >= 0:
			b = g.rowBlock(items[into[t]])
		case e.IsLabel() && merged:
			b = g.newRunBlock(t, "m."+e.Label.Name())
		case e.IsLabel():
			b = g.newRunBlock(t, labelPrefix[first]+e.Label.Name())
		case merged:
			b = g.newRunBlock(t, "mi")
		default:
			b = g.newRunBlock(t, instrName[first])
		}
		switch {
		case e.IsLabel():
			for j, re := range row.ents {
				if re != nil {
					g.placeLabel(j, re.Label, b)
				}
			}
		case merged:
			mi := ir.CloneShape(e.Instr)
			b.Append(mi)
			start := len(tagSlab)
			for j, re := range row.ents {
				if re != nil {
					tagSlab = append(tagSlab, taggedInstr{member: j, orig: re.Instr})
					g.placeInstr(j, re.Instr, mi, b)
				}
			}
			g.order = append(g.order, genInstr{in: mi, tags: tagSlab[start:], row: int32(1 + t)})
		default:
			c := ir.CloneShape(e.Instr)
			b.Append(c)
			tagSlab = append(tagSlab, taggedInstr{member: first, orig: e.Instr})
			g.order = append(g.order, genInstr{in: c, tags: tagSlab[len(tagSlab)-1:], row: int32(1 + t)})
			g.placeInstr(first, e.Instr, c, b)
		}
	}
	// Close every run that does not end in a terminator, in row order:
	// unconditionally when every member continues the same way, otherwise
	// with a dispatch on the function identifier. A member continues at
	// the next item of its original block, which starts a run of its own —
	// a row that continued this run would be in b.
	target := make([]*ir.Block, g.k)
	for _, row := range items {
		b := g.rowBlock(row)
		if b.Term() != nil {
			continue
		}
		for j, e := range row.ents {
			target[j] = nil
			if e != nil {
				target[j] = g.mapped(j, chainNext(e)).(*ir.Instruction).Parent()
			}
		}
		if target[row.firstMember()] != b {
			g.appendDispatch(b, target)
		}
	}
	// Entry dispatch on the function identifier.
	for j := range target {
		target[j] = g.mapLabel(j, g.fns[j].Entry())
	}
	g.appendDispatch(entry, target)
}

// fuseInto decides, from the members' numberings alone, which rows share
// a merged block: into[t] is the row whose block row t goes into, or -1
// when t starts a block. Instruction row t goes into row r when r is the
// chain predecessor — the previous item in the same original block — of
// every member present in t, and r has no other members; so every member
// of r continues to t and nothing else reaches t. Label rows always start
// a block: their phis take one incoming edge per predecessor, which
// assignPhiIncomings maps back through one original block per member.
// Merges across original blocks stay with Simplify.
func (g *generator) fuseInto(items []famItem) []int32 {
	const apart = -2 // members continue from different rows
	size := 0
	for j := range g.num {
		size = max(size, g.num[j].size)
	}
	slab := make([]int32, len(items)+size)
	into, rowOf := slab[:len(items)], slab[len(items):]
	for t := range into {
		into[t] = -1
	}
	for j := range g.num {
		// rowOf[n] is the row of member j's item numbered n.
		num := &g.num[j]
		for t, row := range items {
			if e := row.ents[j]; e != nil {
				rowOf[num.ofEntry(e)] = int32(t)
			}
		}
		for t, row := range items {
			e := row.ents[j]
			if e == nil || e.IsLabel() || into[t] == apart {
				continue
			}
			switch r := rowOf[num.of(chainPrev(e.Instr))]; into[t] {
			case -1:
				into[t] = r
			case r:
			default:
				into[t] = apart
			}
		}
	}
	for t, r := range into {
		if r < 0 || items[r].memberCount() != items[t].memberCount() {
			into[t] = -1
		}
	}
	return into
}

// chainPrev returns the item before in in its block's linearization: the
// previous instruction, or the block's label when in comes first.
func chainPrev(in *ir.Instruction) ir.Value {
	if i := in.Index(); i > 0 {
		if p := in.Parent().Instrs()[i-1]; p.Op() != ir.OpPhi && p.Op() != ir.OpLandingPad {
			return p
		}
	}
	return in.Parent()
}

// chainNext returns the instruction after e, a label or a non-terminator,
// in its block's linearization.
func chainNext(e *align.Entry) *ir.Instruction {
	if !e.IsLabel() {
		return e.Instr.Parent().Instrs()[e.Instr.Index()+1]
	}
	for _, in := range e.Label.Instrs() {
		if in.Op() != ir.OpPhi && in.Op() != ir.OpLandingPad {
			return in
		}
	}
	panic(fmt.Sprintf("core: block %%%s has no terminator", e.Label.Name()))
}

// newRunBlock appends the block of the run starting at row t.
func (g *generator) newRunBlock(t int, name string) *ir.Block {
	g.blockNum = append(g.blockNum, int32(1+t))
	return g.merged.NewBlockIn(name)
}

// rowBlock returns the merged block holding row's label or instruction.
func (g *generator) rowBlock(row famItem) *ir.Block {
	j := row.firstMember()
	e := row.ents[j]
	if e.IsLabel() {
		return g.mapLabel(j, e.Label)
	}
	return g.mapped(j, e.Instr).(*ir.Instruction).Parent()
}

// blockNumber returns b's row number: the index b would have among the
// merged blocks if every row had a block of its own — 0 for the entry,
// 1+t for the block a run starting at row t heads, and for a block made
// after buildCFG its place after all the rows, in creation order.
func (g *generator) blockNumber(b *ir.Block) int32 {
	if i := b.Index(); i < len(g.blockNum) {
		return g.blockNum[i]
	}
	return int32(1 + g.rows + b.Index() - len(g.blockNum))
}

// rowBlocks returns how many blocks the body would have if every row had
// a block of its own: one more than the largest blockNumber.
func (g *generator) rowBlocks() int { return 1 + g.rows + len(g.merged.Blocks) - len(g.blockNum) }

// rowName is the name of the block gi's row starts: "mi" for a merged
// instruction, "iN" for member N-1's own.
func rowName(gi *genInstr) string {
	if len(gi.tags) >= 2 {
		return "mi"
	}
	return "i" + strconv.Itoa(gi.tags[0].member+1)
}

// appendDispatch terminates b with a branch to each member's target,
// target[j] (nil when the member never reaches b): an unconditional branch when
// every routed member agrees, the historical conditional branch on the
// i1 identifier for two-member families, and a switch on the integer
// identifier beyond — the Figure 10 dispatch generalized from a 2-way
// conditional.
func (g *generator) appendDispatch(b *ir.Block, target []*ir.Block) {
	var first *ir.Block
	same := true
	for _, t := range target {
		if t == nil {
			continue
		}
		if first == nil {
			first = t
		} else if t != first {
			same = false
		}
	}
	if first == nil {
		panic(fmt.Sprintf("core: merged block %s has no continuation", b.Name()))
	}
	if same {
		b.Append(ir.NewBr(first))
		return
	}
	if g.fidBool() {
		b.Append(ir.NewCondBr(g.fid, target[0], target[1]))
		return
	}
	var members []int
	var targets []*ir.Block
	for j, t := range target {
		if t != nil {
			members = append(members, j)
			targets = append(targets, t)
		}
	}
	b.Append(g.fidDispatch(members, targets))
}

// fidDispatch builds the terminator routing each member (members[t] to
// targets[t]) by identifier: a conditional branch on the shared
// fid == j test when a lone member dissents from an otherwise common
// target — as cheap as the pairwise dispatch — and a switch on the
// identifier otherwise, with members sharing the default target folded
// into it. The chain/entry dispatch, the label-selection blocks and
// the switch-fed-phi diamonds all route through here, so the dispatch
// shape (what costmodel.SwitchBytes prices) has a single definition.
func (g *generator) fidDispatch(members []int, targets []*ir.Block) *ir.Instruction {
	if lone, other, ok := loneDissent(targets, func(a, b *ir.Block) bool { return a == b }); ok {
		return ir.NewCondBr(g.fidIs(members[lone]), targets[lone], targets[other])
	}
	var cases []ir.SwitchCase
	for t := 1; t < len(members); t++ {
		if targets[t] == targets[0] {
			continue // the default target falls through
		}
		cases = append(cases, ir.SwitchCase{Val: ir.NewConstInt(ir.I32, int64(members[t])), Dest: targets[t]})
	}
	return ir.NewSwitch(g.fid, targets[0], cases...)
}

// placeLabel registers the merged block for an original label and copies
// the label's phis into it (phis travel with their labels, §4.1.1).
func (g *generator) placeLabel(j int, ob *ir.Block, b *ir.Block) {
	g.setMapped(j, ob, b)
	g.setOrigin(j, b, ob)
	for _, phi := range ob.Phis() {
		np := ir.NewPhi(phi.Name(), phi.Type())
		b.Append(np)
		g.setMapped(j, phi, np)
		g.phis = append(g.phis, copiedPhi{np: np, taggedInstr: taggedInstr{member: j, orig: phi}})
	}
}

// placeInstr registers the merged value for an original instruction
// placed in merged block b.
func (g *generator) placeInstr(j int, orig, merged *ir.Instruction, b *ir.Block) {
	g.setMapped(j, orig, merged)
	g.setOrigin(j, b, orig.Parent())
}

// resolve maps an original operand of member j to its merged value,
// inserting a slot load before user when the operand is a landingpad
// value (whose merged definitions live in the per-invoke landing
// blocks).
func (g *generator) resolve(j int, v ir.Value, user *ir.Instruction) ir.Value {
	switch v := v.(type) {
	case *ir.Instruction:
		if mv := g.mapped(j, v); mv != nil {
			return mv
		}
		if v.Op() == ir.OpLandingPad {
			return g.padLoad(v, func(ld *ir.Instruction) {
				user.Parent().InsertBefore(ld, user)
			})
		}
		panic(fmt.Sprintf("core: unmapped %v operand from f%d", v.Op(), j+1))
	case *ir.Argument:
		mv := g.mapped(j, v)
		if mv == nil {
			panic(fmt.Sprintf("core: unmapped argument %%%s", v.Name()))
		}
		return mv
	case *ir.Block:
		panic("core: label operands are resolved by assignLabelOperands")
	default:
		return v // constants, globals, functions
	}
}

func (g *generator) padLoad(pad *ir.Instruction, insert func(*ir.Instruction)) ir.Value {
	slot, ok := g.padSlot[pad]
	if !ok {
		panic("core: landingpad slot missing")
	}
	ld := ir.NewLoad("lp.reload", slot)
	insert(ld)
	return ld
}

// assignValueOperands is the non-label half of §4.2. Every generated
// instruction is a copy of its first tag's original without operands
// (ir.CloneShape, in buildCFG), and each operand is read from the
// originals and set once, so a trial never adds a use to, or takes one
// off, a value of the functions it merges. Exclusive copies take their
// original's operands through the value mapping; merged
// instructions take the common value where every member agrees and a
// fid-indexed resolution where they differ — the historical select for
// two members, a select chain of identifier tests for three, a
// switch-fed phi beyond — after trying commutative operand reordering
// (Figure 9).
func (g *generator) assignValueOperands() {
	var vals, column []ir.Value
	for oi := range g.order {
		gi := &g.order[oi]
		in, tags := gi.in, gi.tags
		if len(tags) == 1 {
			orig := tags[0].orig
			for i := 0; i < in.NumOperands(); i++ {
				if _, isLabel := orig.Operand(i).(*ir.Block); isLabel {
					continue
				}
				in.SetOperand(i, g.resolve(tags[0].member, orig.Operand(i), in))
			}
			continue
		}
		// vals[t*n+i] is tag t's merged value for operand i (nil for a
		// label operand); the buffer is reused from instruction to
		// instruction.
		n := in.NumOperands()
		vals = append(vals[:0], make([]ir.Value, len(tags)*n)...)
		for t, tag := range tags {
			for i := 0; i < n; i++ {
				if _, isLabel := tag.orig.Operand(i).(*ir.Block); isLabel {
					continue
				}
				vals[t*n+i] = g.resolve(tag.member, tag.orig.Operand(i), in)
			}
		}
		if canReorder(in) && vals[0] != nil && vals[1] != nil {
			// Each later member reorders against member 0's operands
			// (Figure 9, applied per member).
			for t := 1; t < len(tags); t++ {
				vt := vals[t*n:]
				straight := btoi(ir.ValuesEqual(vals[0], vt[0])) + btoi(ir.ValuesEqual(vals[1], vt[1]))
				swapped := btoi(ir.ValuesEqual(vals[0], vt[1])) + btoi(ir.ValuesEqual(vals[1], vt[0]))
				if swapped > straight {
					vt[0], vt[1] = vt[1], vt[0]
					g.stats.OperandSwaps++
				}
			}
		}
		for i := 0; i < n; i++ {
			if vals[i] == nil {
				continue // label operand
			}
			column = column[:0]
			same := true
			for t := range tags {
				column = append(column, vals[t*n+i])
				same = same && ir.ValuesEqual(vals[i], vals[t*n+i])
			}
			if same {
				in.SetOperand(i, vals[i])
				continue
			}
			in.SetOperand(i, g.selectValue(gi, column))
		}
	}
}

// selectValue builds the fid-indexed resolution of one operand whose
// merged values differ across members and returns the selected value.
func (g *generator) selectValue(gi *genInstr, vs []ir.Value) ir.Value {
	in, tags := gi.in, gi.tags
	if g.fidBool() {
		sel := ir.NewSelect("sel", g.fid, vs[0], vs[1])
		in.Parent().InsertBefore(sel, in)
		g.stats.Selects++
		return sel
	}
	// Two distinct values with one of them exclusive to a single member
	// collapse to one select on the (entry-hoisted, shared) identifier
	// test — the same per-divergence cost as a pairwise merge.
	if t, other, ok := loneDissent(vs, ir.ValuesEqual); ok {
		sel := ir.NewSelect("sel", g.fidIs(tags[t].member), vs[t], vs[other])
		in.Parent().InsertBefore(sel, in)
		g.stats.Selects++
		return sel
	}
	if len(tags) <= 3 {
		// Select chain: test the identifier against each member but the
		// last, which is the fall-through arm.
		acc := vs[len(vs)-1]
		for t := len(vs) - 2; t >= 0; t-- {
			sel := ir.NewSelect("sel", g.fidIs(tags[t].member), vs[t], acc)
			in.Parent().InsertBefore(sel, in)
			acc = sel
			g.stats.Selects++
		}
		return acc
	}
	// Switch-fed phi: one dispatch diamond per instruction, one phi per
	// varying operand.
	d := g.diamondFor(gi)
	phi := ir.NewPhi("osel", vs[0].Type())
	d.join.InsertAtFront(phi)
	for t, arm := range d.arms {
		phi.AddIncoming(vs[t], arm)
	}
	g.stats.SwitchPhis++
	return phi
}

// loneDissent reports whether the values split into exactly two
// equivalence groups, one of which holds a single element: it returns
// that element's index and a representative index of the majority
// group. The k-ary resolutions use it to fall back to one select or
// conditional branch instead of a chain or switch.
func loneDissent[V any](vs []V, eq func(a, b V) bool) (lone, other int, ok bool) {
	rep := [2]int{-1, -1}
	count := [2]int{}
	groups := 0
	for i, v := range vs {
		gi := -1
		for gid := 0; gid < groups; gid++ {
			if eq(vs[rep[gid]], v) {
				gi = gid
				break
			}
		}
		if gi < 0 {
			if groups == 2 {
				return 0, 0, false
			}
			gi = groups
			rep[gi] = i
			groups++
		}
		count[gi]++
	}
	if groups != 2 {
		return 0, 0, false
	}
	switch {
	case count[0] == 1:
		return rep[0], rep[1], true
	case count[1] == 1:
		return rep[1], rep[0], true
	default:
		return 0, 0, false
	}
}

// diamondFor splits in's block into a switch-on-fid dispatch over one
// arm per member tag, rejoining at a block holding in and everything
// after it. The diamond is built once per instruction and shared by all
// of its fid-varying operands.
func (g *generator) diamondFor(gi *genInstr) *diamond {
	if gi.dia != nil {
		return gi.dia
	}
	in, tags := gi.in, gi.tags
	b := in.Parent()
	// Named after in's row, not b, which may be a run's block or an
	// earlier diamond's join.
	join := g.merged.NewBlockIn(rowName(gi) + ".phi")
	// Move in and every following instruction (the rest of the run and
	// its terminator) into the join block, from the end, so that each
	// removal shifts nothing.
	moved := slices.Clone(b.Instrs()[in.Index():])
	for i := len(moved) - 1; i >= 0; i-- {
		b.Remove(moved[i])
	}
	for _, x := range moved {
		join.Append(x)
	}
	arms := make([]*ir.Block, len(tags))
	members := make([]int, len(tags))
	for t, tag := range tags {
		arm := g.merged.NewBlockIn("osel")
		arm.Append(ir.NewBr(join))
		g.inheritOrigin(arm, b)
		arms[t] = arm
		members[t] = tag.member
	}
	dispatch := b.Append(g.fidDispatch(members, arms))
	g.inheritOrigin(join, b)
	gi.dia = &diamond{arms: arms, join: join, dispatch: dispatch}
	return gi.dia
}

// canReorder reports whether in's first two operands may be swapped:
// commutative binary operations and equality comparisons.
func canReorder(in *ir.Instruction) bool {
	if in.NumOperands() != 2 {
		return false
	}
	if in.Op().IsCommutative() {
		return true
	}
	return (in.Op() == ir.OpICmp || in.Op() == ir.OpFCmp) && in.Pred().IsEquality()
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// assignLabelOperands is §4.2.1: exclusive terminators take their
// original's label operands, remapped directly; merged terminators
// whose mapped labels differ get a label-selection block — Figure 10's
// conditional for two-member families, a switch on the identifier
// beyond — except two-member conditional branches with swapped labels,
// which use the xor rewrite (Figure 11).
func (g *generator) assignLabelOperands() {
	var ls []*ir.Block
	for _, gi := range g.order {
		in, tags := gi.in, gi.tags
		if !in.IsTerminator() {
			continue
		}
		n := in.NumOperands()
		if len(tags) == 1 {
			for i := 0; i < n; i++ {
				if ob, isLabel := tags[0].orig.Operand(i).(*ir.Block); isLabel {
					in.SetOperand(i, g.mapLabel(tags[0].member, ob))
				}
			}
			continue
		}
		// ls[t*n+i] is tag t's merged label for operand i (nil for a
		// value operand).
		ls = append(ls[:0], make([]*ir.Block, len(tags)*n)...)
		for t, tag := range tags {
			for i := 0; i < n; i++ {
				if ob, isLabel := tag.orig.Operand(i).(*ir.Block); isLabel {
					ls[t*n+i] = g.mapLabel(tag.member, ob)
				}
			}
		}
		// Figure 11: br c, A, B merged with br c, B, A becomes
		// br (xor c, fid), B, A — correct for both functions and cheaper
		// than two label selections. Two-member families only: the
		// rewrite is an i1 identity.
		if g.fidBool() && g.opts.XorBranch && in.IsCondBr() &&
			ls[1] == ls[n+2] && ls[2] == ls[n+1] && ls[1] != ls[2] {
			x := ir.NewBinary(ir.OpXor, "xsel", in.Operand(0), g.fid)
			in.Parent().InsertBefore(x, in)
			in.SetOperand(0, x)
			in.SetOperand(1, ls[n+1])
			in.SetOperand(2, ls[n+2])
			g.stats.XorRewrites++
			continue
		}
		for i := 0; i < n; i++ {
			if ls[i] == nil {
				continue // value operand
			}
			same := true
			for t := 1; t < len(tags); t++ {
				if ls[t*n+i] != ls[i] {
					same = false
					break
				}
			}
			if same {
				in.SetOperand(i, ls[i])
				continue
			}
			sel := g.merged.NewBlockIn("lsel")
			if g.fidBool() {
				sel.Append(ir.NewCondBr(g.fid, ls[i], ls[n+i]))
			} else {
				members := make([]int, len(tags))
				targets := make([]*ir.Block, len(tags))
				for t := range tags {
					members[t] = tags[t].member
					targets[t] = ls[t*n+i]
				}
				sel.Append(g.fidDispatch(members, targets))
			}
			g.inheritOrigin(sel, in.Parent())
			in.SetOperand(i, sel)
			g.stats.LabelSelections++
		}
	}
}

func (g *generator) mapLabel(j int, ob *ir.Block) *ir.Block {
	b := g.mapped(j, ob)
	if b == nil {
		panic(fmt.Sprintf("core: unmapped label %%%s", ob.Name()))
	}
	return b.(*ir.Block)
}

// inheritOrigin copies the block mapping of src onto b (used for
// label-selection, dispatch and landing blocks, which sit on an edge
// out of src and represent the same original blocks for phi-incoming
// purposes).
func (g *generator) inheritOrigin(b, src *ir.Block) {
	for j := 0; j < g.k; j++ {
		if ob := g.originOf(j, src); ob != nil {
			g.setOrigin(j, b, ob)
		}
	}
}

// createLandingBlocks is §4.2.2: every invoke in the merged function
// gets a fresh landing block holding a new landingpad (stored to the
// original landingpads' slots) that branches to the remapped unwind
// destination.
func (g *generator) createLandingBlocks() {
	for _, gi := range g.order {
		in := gi.in
		if in.Op() != ir.OpInvoke {
			continue
		}
		unwind := in.UnwindDest()
		pad := g.merged.NewBlockIn("lpad")
		g.inheritOrigin(pad, in.Parent())
		cleanup := false
		var origPads []*ir.Instruction
		for _, tag := range gi.tags {
			origPads = append(origPads, origLandingPad(tag.orig))
		}
		for _, op := range origPads {
			cleanup = cleanup || op.Cleanup
		}
		lp := ir.NewLandingPad("lp", cleanup)
		pad.Append(lp)
		for _, op := range origPads {
			if slot, ok := g.padSlot[op]; ok {
				pad.Append(ir.NewStore(lp, slot))
			}
		}
		pad.Append(ir.NewBr(unwind))
		in.SetOperand(in.NumOperands()-1, pad)
	}
}

// origLandingPad returns the landingpad of an original invoke's unwind
// destination.
func origLandingPad(inv *ir.Instruction) *ir.Instruction {
	lp := inv.UnwindDest().FirstNonPhi()
	if lp == nil || lp.Op() != ir.OpLandingPad {
		panic("core: invoke unwind destination lacks a landingpad")
	}
	return lp
}

// assignPhiIncomings is §4.2.3: each copied phi receives, for every
// predecessor of its merged block, the incoming value of the original
// predecessor found through the block mapping, or undef when the
// predecessor belongs only to other members.
func (g *generator) assignPhiIncomings() {
	for _, cp := range g.phis {
		np, orig := cp.np, cp.orig
		for _, q := range np.Parent().Preds() {
			var mv ir.Value
			if c := g.originOf(cp.member, q); c != nil {
				if v, ok := orig.IncomingFor(c); ok {
					mv = g.resolveAtBlockEnd(cp.member, v, q)
				}
			}
			if mv == nil {
				mv = ir.NewUndef(orig.Type())
			}
			np.AddIncoming(mv, q)
		}
	}
}

// resolveAtBlockEnd resolves v like resolve, but inserts any needed slot
// load at the end of block q (phi uses happen at the end of the incoming
// block).
func (g *generator) resolveAtBlockEnd(j int, v ir.Value, q *ir.Block) ir.Value {
	if in, ok := v.(*ir.Instruction); ok {
		if in.Op() == ir.OpLandingPad && g.mapped(j, in) == nil {
			return g.padLoad(in, func(ld *ir.Instruction) {
				q.InsertBefore(ld, q.Term())
			})
		}
	}
	return g.resolve(j, v, nil)
}
