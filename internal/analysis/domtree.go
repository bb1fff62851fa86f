// Package analysis provides control-flow analyses over the IR: reverse
// postorder, dominator trees (Cooper–Harvey–Kennedy), dominance
// frontiers and iterated dominance frontiers. These underpin SSA
// construction (mem2reg) and SalSSA's dominance repair.
//
// Every table here is a slice keyed by ir.Block.Index or by a block's
// reverse-postorder number, and successors are read off terminator
// operands in place: the merging code generators rebuild these analyses
// for every trial body, so construction cost is what matters.
package analysis

import (
	"sync/atomic"

	"repro/internal/ir"
)

// nextSucc returns the first block among ops[from:] and the operand
// position after it, or nil once the label operands are exhausted.
// Walking a terminator's operands this way visits its successors in
// Succs order (duplicates included) without building the slice.
func nextSucc(ops []ir.Value, from int) (*ir.Block, int) {
	for i := from; i < len(ops); i++ {
		if b, ok := ops[i].(*ir.Block); ok {
			return b, i + 1
		}
	}
	return nil, len(ops)
}

// termOperands returns the operands of b's terminator (nil for an
// unterminated block).
func termOperands(b *ir.Block) []ir.Value {
	if t := b.Term(); t != nil {
		return t.Operands()
	}
	return nil
}

const unreached = int32(-1)

// walk numbers the blocks reachable from f's entry. num is keyed by
// block index and must come in filled with unreached; on return
// num[b.Index()] is b's reverse-postorder number. The blocks are written
// in reverse postorder at the tail of order (len(order) >= len(f.Blocks))
// and that tail is returned. stack is the search's scratch, handed back
// grown.
func walk(f *ir.Function, num []int32, order []*ir.Block, stack []dfsFrame) ([]*ir.Block, []dfsFrame) {
	// Iterative DFS: the generators' block chains would overflow a
	// recursive one.
	const onStack = int32(-2)
	num[0] = onStack
	if cap(stack) < len(f.Blocks) {
		stack = make([]dfsFrame, 0, len(f.Blocks))
	}
	stack = append(stack[:0], dfsFrame{})
	at := len(order)
	for len(stack) > 0 {
		fr := &stack[len(stack)-1]
		b := f.Blocks[fr.block]
		s, next := nextSucc(termOperands(b), int(fr.next))
		fr.next = int32(next)
		if s == nil {
			at--
			order[at] = b
			stack = stack[:len(stack)-1]
		} else if si := s.Index(); num[si] == unreached {
			num[si] = onStack
			stack = append(stack, dfsFrame{block: int32(si)})
		}
	}
	rpo := order[at:]
	for i, b := range rpo {
		num[b.Index()] = int32(i)
	}
	return rpo, stack
}

// dfsFrame is one block on walk's stack and the operand its successor
// scan resumes at.
type dfsFrame struct{ block, next int32 }

func newNumbering(n int) []int32 {
	num := make([]int32, n)
	for i := range num {
		num[i] = unreached
	}
	return num
}

// ReversePostorder returns the reachable blocks of f in reverse
// postorder; the entry block is first.
func ReversePostorder(f *ir.Function) []*ir.Block {
	if f.IsDecl() {
		return nil
	}
	rpo, _ := walk(f, newNumbering(len(f.Blocks)), make([]*ir.Block, len(f.Blocks)), nil)
	return rpo
}

// DomTree is a dominator tree over the reachable blocks of a function.
// It describes the CFG as it was when the tree was built: a block added
// later, or one whose Index moved because blocks were removed, reads as
// unreachable rather than as some other block. A tree stays valid across
// any rewrite that leaves the block list and the terminators alone.
type DomTree struct {
	fn  *ir.Function
	rpo []*ir.Block
	// The int32 tables share one allocation. num is keyed by block
	// index, the rest by reverse-postorder number; predStart/preds and
	// kidStart/kids are CSR adjacency (row i is [start[i], start[i+1])).
	num       []int32
	idom      []int32 // the entry maps to itself
	predStart []int32
	preds     []int32 // distinct reachable predecessors
	kidStart  []int32
	kids      []*ir.Block // dominator-tree children, in reverse postorder

	// The storage the tables above are cut from, kept whole so that
	// Rebuild can reuse it.
	slab   []int32
	blocks []*ir.Block
	stack  []dfsFrame
}

var treesBuilt atomic.Int64

// TreesBuilt returns how many dominator trees this process has built, so
// tests can hold a pipeline to its tree budget.
func TreesBuilt() int64 { return treesBuilt.Load() }

// NewDomTree computes the dominator tree of f using the iterative
// algorithm of Cooper, Harvey and Kennedy ("A Simple, Fast Dominance
// Algorithm").
func NewDomTree(f *ir.Function) *DomTree {
	t := new(DomTree)
	t.Rebuild(f)
	return t
}

// Rebuild makes t the dominator tree of f as it stands, as NewDomTree
// would, in the storage t already holds where it is large enough. What t
// answered before is gone.
func (t *DomTree) Rebuild(f *ir.Function) {
	treesBuilt.Add(1)
	*t = DomTree{fn: f, slab: t.slab, blocks: t.blocks, stack: t.stack}
	total := len(f.Blocks)
	if total == 0 {
		return
	}
	edges := 0
	for _, b := range f.Blocks {
		for _, v := range termOperands(b) {
			if _, ok := v.(*ir.Block); ok {
				edges++
			}
		}
	}
	// Sized by the block count before reachability is known; CSR starts
	// take n+2 entries (see csrStarts).
	t.slab = grow(t.slab, 2*total+2*(total+2)+edges)
	t.blocks = grow(t.blocks, 2*total)
	slab, blocks := t.slab, t.blocks
	clear(slab)
	for i := range slab[:total] {
		slab[i] = unreached
	}
	t.num = slab[:total]
	t.rpo, t.stack = walk(f, t.num, blocks, t.stack)
	n := len(t.rpo)
	t.kids = blocks[:n-1]
	t.idom = slab[total : total+n]
	t.predStart = slab[2*total : 2*total+n+2]
	t.kidStart = slab[3*total+2 : 3*total+n+4]
	t.preds = slab[4*total+4:]

	// Predecessor lists from the successor edges, each predecessor once
	// however many of its edges reach the block (br c, X, X; a switch
	// with several cases to one target). Edges out of block i are only
	// seen while i is being scanned, so "already listed" is a stamp.
	stamp := t.kidStart[:n]
	eachEdge := func(visit func(from, to int32)) {
		clear(stamp)
		for i, b := range t.rpo {
			ops := termOperands(b)
			for s, at := nextSucc(ops, 0); s != nil; s, at = nextSucc(ops, at) {
				if j := t.num[s.Index()]; stamp[j] != int32(i)+1 {
					stamp[j] = int32(i) + 1
					visit(int32(i), j)
				}
			}
		}
	}
	eachEdge(func(_, to int32) { t.predStart[to+2]++ })
	csrStarts(t.predStart)
	eachEdge(func(from, to int32) {
		t.preds[t.predStart[to+1]] = from
		t.predStart[to+1]++
	})
	t.predStart = t.predStart[:n+1]
	t.preds = t.preds[:t.predStart[n]]
	clear(t.kidStart)

	for i := range t.idom {
		t.idom[i] = unreached
	}
	t.idom[0] = 0
	for changed := true; changed; {
		changed = false
		for i := 1; i < n; i++ {
			newIdom := unreached
			for _, p := range t.preds[t.predStart[i]:t.predStart[i+1]] {
				if t.idom[p] == unreached {
					continue
				}
				if newIdom == unreached {
					newIdom = p
				} else {
					newIdom = t.intersect(newIdom, p)
				}
			}
			if newIdom != unreached && t.idom[i] != newIdom {
				t.idom[i] = newIdom
				changed = true
			}
		}
	}

	for i := 1; i < n; i++ {
		t.kidStart[t.idom[i]+2]++
	}
	csrStarts(t.kidStart)
	for i := 1; i < n; i++ {
		p := t.idom[i]
		t.kids[t.kidStart[p+1]] = t.rpo[i]
		t.kidStart[p+1]++
	}
	t.kidStart = t.kidStart[:n+1]
}

// Clear drops every pointer t holds into its function, keeping the
// storage for the next Rebuild: a tree kept across trials must not keep
// a dead body alive. t answers nothing until it is rebuilt.
func (t *DomTree) Clear() {
	clear(t.blocks[:cap(t.blocks)])
	*t = DomTree{slab: t.slab, blocks: t.blocks, stack: t.stack}
}

// grow returns s resliced to n elements, reallocated when its capacity
// falls short. Contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// csrStarts turns per-row counts stored two slots up (start[row+2])
// into running offsets, so that start[row+1] is where row begins. A
// fill that places each element at start[row+1] and bumps it leaves the
// finished CSR offsets behind: row i is [start[i], start[i+1]).
func csrStarts(start []int32) {
	for i := 1; i < len(start); i++ {
		start[i] += start[i-1]
	}
}

func (t *DomTree) intersect(a, b int32) int32 {
	for a != b {
		for a > b {
			a = t.idom[a]
		}
		for b > a {
			b = t.idom[b]
		}
	}
	return a
}

// number returns b's reverse-postorder number, or unreached when b was
// not a reachable block of the function when the tree was built.
func (t *DomTree) number(b *ir.Block) int32 {
	i := b.Index()
	if i < 0 || i >= len(t.num) {
		return unreached
	}
	r := t.num[i]
	if r == unreached || t.rpo[r] != b {
		return unreached
	}
	return r
}

// Rekey makes t answer for its function's blocks again after a rewrite
// that only took blocks away — shifting the survivors' indices — and
// left dominance among the survivors as it was: a block absorbed into
// its only predecessor, an empty block's predecessors sent straight to
// its target, unreachable blocks erased. Dominates, StrictlyDominates
// and IsReachable then answer for the survivors; RPO, IDom, Children and
// NumPreds still describe the graph the tree was built for.
func (t *DomTree) Rekey() {
	for i := range t.num {
		t.num[i] = unreached
	}
	t.num = t.num[:min(len(t.num), len(t.fn.Blocks))]
	for r, b := range t.rpo {
		if b.Parent() == t.fn && b.Index() < len(t.num) {
			t.num[b.Index()] = int32(r)
		}
	}
}

// Func returns the function the tree was built for.
func (t *DomTree) Func() *ir.Function { return t.fn }

// RPO returns the reachable blocks in reverse postorder.
func (t *DomTree) RPO() []*ir.Block { return t.rpo }

// IsReachable reports whether b is reachable from the entry.
func (t *DomTree) IsReachable(b *ir.Block) bool { return t.number(b) != unreached }

// NumPreds returns how many distinct reachable blocks branch to b (0 for
// an unreachable b): the incoming edges a phi in b needs.
func (t *DomTree) NumPreds(b *ir.Block) int {
	i := t.number(b)
	if i == unreached {
		return 0
	}
	return int(t.predStart[i+1] - t.predStart[i])
}

// IDom returns the immediate dominator of b (nil for the entry block and
// unreachable blocks).
func (t *DomTree) IDom(b *ir.Block) *ir.Block {
	i := t.number(b)
	if i <= 0 {
		return nil
	}
	return t.rpo[t.idom[i]]
}

// Children returns the dominator-tree children of b. The slice is the
// tree's own.
func (t *DomTree) Children(b *ir.Block) []*ir.Block {
	i := t.number(b)
	if i == unreached {
		return nil
	}
	return t.kids[t.kidStart[i]:t.kidStart[i+1]]
}

// Dominates reports whether block a dominates block b. A block dominates
// itself. Unreachable blocks dominate nothing and are dominated by
// everything (vacuously); callers normally restrict to reachable blocks.
func (t *DomTree) Dominates(a, b *ir.Block) bool {
	bi := t.number(b)
	if bi == unreached {
		return true
	}
	ai := t.number(a)
	if ai == unreached {
		return false
	}
	// a dominates b iff walking b's idom chain (strictly decreasing rpo
	// numbers) reaches a.
	for bi > ai {
		bi = t.idom[bi]
	}
	return bi == ai
}

// StrictlyDominates reports whether a dominates b and a != b.
func (t *DomTree) StrictlyDominates(a, b *ir.Block) bool {
	return a != b && t.Dominates(a, b)
}

// InstrDominates reports whether the value def is available at
// instruction use. Arguments and constants dominate everything. For phi
// uses the caller should instead test dominance at the incoming block's
// terminator (see DominatesUse).
func (t *DomTree) InstrDominates(def, use *ir.Instruction) bool {
	db, ub := def.Parent(), use.Parent()
	if db == ub {
		for _, in := range db.Instrs() {
			if in == def {
				return true
			}
			if in == use {
				return false
			}
		}
		return false
	}
	return t.StrictlyDominates(db, ub)
}

// DominatesUse reports whether the definition def is available at the
// operand slot (user, opIndex), accounting for the phi rule: a phi's
// operand is used at the end of the corresponding incoming block.
func (t *DomTree) DominatesUse(def ir.Value, user *ir.Instruction, opIndex int) bool {
	d, ok := def.(*ir.Instruction)
	if !ok {
		return true // arguments, constants, globals and blocks are always available
	}
	if user.Op() == ir.OpPhi {
		inc := user.IncomingBlock(opIndex / 2)
		return t.Dominates(d.Parent(), inc)
	}
	return t.InstrDominates(d, user)
}

// DomFrontier holds the dominance frontier of every reachable block of
// a tree's function, as CSR rows of reverse-postorder numbers.
type DomFrontier struct {
	t     *DomTree
	start []int32
	list  []int32
	// Iterated's scratch: mark[r] == gen once r is in the current result.
	mark []int32
	gen  int32
	work []int32
	slab []int32 // start and mark, kept whole for Rebuild
}

// NewDomFrontier computes the dominance frontier of every reachable
// block using the algorithm of Cooper, Harvey and Kennedy.
func NewDomFrontier(t *DomTree) *DomFrontier {
	df := new(DomFrontier)
	df.Rebuild(t)
	return df
}

// Rebuild makes df the dominance frontier of t's blocks, as
// NewDomFrontier would, in the storage df already holds where it is
// large enough.
func (df *DomFrontier) Rebuild(t *DomTree) {
	n := len(t.rpo)
	df.t = t
	df.slab = grow(df.slab, 2*n+2)
	clear(df.slab)
	df.start, df.mark = df.slab[:n+2], df.slab[n+2:]
	// Join block b is in the frontier of every block on the idom chains
	// from its predecessors up to (excluding) idom(b). The chains of one
	// join share their upper parts: a runner already stamped for b has
	// its whole remaining chain stamped too.
	stamp := df.mark
	eachMember := func(visit func(runner, b int32)) {
		clear(stamp)
		for b := int32(0); b < int32(n); b++ {
			preds := t.preds[t.predStart[b]:t.predStart[b+1]]
			if len(preds) < 2 {
				continue
			}
			for _, runner := range preds {
				for runner != t.idom[b] && stamp[runner] != b+1 {
					stamp[runner] = b + 1
					visit(runner, b)
					runner = t.idom[runner]
				}
			}
		}
	}
	eachMember(func(runner, _ int32) { df.start[runner+2]++ })
	csrStarts(df.start)
	df.list = grow(df.list, int(df.start[n+1]))
	eachMember(func(runner, b int32) {
		df.list[df.start[runner+1]] = b
		df.start[runner+1]++
	})
	df.start = df.start[:n+1]
	clear(stamp)
}

// Clear drops df's tree, keeping the storage for the next Rebuild.
func (df *DomFrontier) Clear() { df.t = nil }

// Iterated appends to out the iterated dominance frontier of the given
// set of blocks — the fixpoint of DF over defs ∪ result, which is where
// phi-nodes must be placed for a variable defined in defs — and returns
// the extended slice.
func (df *DomFrontier) Iterated(defs []*ir.Block, out []*ir.Block) []*ir.Block {
	df.gen++
	work := df.work[:0]
	for _, b := range defs {
		if r := df.t.number(b); r != unreached {
			work = append(work, r)
		}
	}
	for len(work) > 0 {
		r := work[len(work)-1]
		work = work[:len(work)-1]
		for _, fb := range df.list[df.start[r]:df.start[r+1]] {
			if df.mark[fb] != df.gen {
				df.mark[fb] = df.gen
				out = append(out, df.t.rpo[fb])
				work = append(work, fb)
			}
		}
	}
	df.work = work
	return out
}
