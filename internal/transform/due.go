package transform

import (
	"slices"

	"repro/internal/analysis"
	"repro/internal/ir"
)

// Clean-up in proportion to the change. Every pass keeps the loop and
// visiting order it would have sweeping every block, and visits only the
// blocks that are due: those that changed — by ir's edit stamps — since
// the pass last looked at them and found nothing to do. A block that is
// not due is one where the pass's trigger is false, so skipping it
// changes nothing: the rewrites, and their order, are the full sweep's.
// Each pass's trigger is one function (fires), shared by the pass, by
// Settled and by the round loops' stopping test.
//
// A pass records its visit in the block's mark slot for the pass: the
// function's edit counter as the visit began. If the visit changed
// nothing, the block is clean at that count; if it changed something,
// the block's stamp has moved past the mark and it stays due. So the
// mark always says "clean at this count", whatever the pass did. The
// marks live on the blocks, so a later call — Simplify after the
// repair's fold fixpoint — skips what an earlier one settled.

// pass names a clean-up pass; it is also its mark slot.
type pass int

const (
	passFoldInstructions pass = iota
	passFoldTerminators
	passSinglePredPhis
	passTrivialPhis
	passDuplicatePhis
	passMergeBlocks
	passForwardEmpty
	passDCE
	numPasses
)

// passUnreachable is RemoveUnreachable, whose trigger is the function's
// and whose mark is the function's mark slot.
const passUnreachable = numPasses

// Every per-block pass has a mark slot (this fails to compile if not).
const _ = uint(ir.NumMarks - numPasses)

var passNames = [...]string{
	passFoldInstructions: "FoldInstructions",
	passFoldTerminators:  "FoldTerminators",
	passSinglePredPhis:   "foldSinglePredPhis",
	passTrivialPhis:      "RemoveTrivialPhis",
	passDuplicatePhis:    "RemoveDuplicatePhis",
	passMergeBlocks:      "MergeStraightLineBlocks",
	passForwardEmpty:     "ForwardEmptyBlocks",
	passDCE:              "DCE",
	passUnreachable:      "RemoveUnreachable",
}

func (p pass) String() string { return passNames[p] }

// SkipCheck, when a test sets it, makes every skip pay for the trigger
// it saves and hears of each block (nil for RemoveUnreachable) that was
// skipped as clean although the pass's trigger fires there — a change
// some mutation did not stamp. Set it before anything runs; it is nil in
// production.
var SkipCheck func(pass string, f *ir.Function, b *ir.Block)

// everyBlock turns the filter off: every pass visits every block and
// every loop runs until a sweep or round changes nothing — the loops as
// they were, which simplify_spec_test.go holds the filtered ones to. Only
// that specification sets it.
var everyBlock bool

// scratch is what one clean-up call keeps between its passes: a
// dominator tree of f and the blocks reachable from its entry, each
// worked out on first use and again once f's CFG has changed; when
// dominance last changed; and the phi view the duplicate-phi trigger
// reads large blocks through.
type scratch struct {
	f           *ir.Function
	dt          *analysis.DomTree
	ownDT       bool   // dt was built here, not handed in
	reach       []bool // by block index
	walk        []*ir.Block
	dtAt, rchAt uint32 // f's CFG stamp when dt, reach were worked out
	// domAt is the CFG stamp of the last change to f's control flow that
	// may have changed which block dominates which, as far as this call
	// can tell; cfgAt is the CFG stamp it last saw. A change it did not
	// see counts.
	domAt, cfgAt uint32
	view         phiView
}

// newScratch returns f's scratch, holding dt if it is not nil: a
// dominator tree of f as it stands.
func newScratch(f *ir.Function, dt *analysis.DomTree) scratch {
	c := f.CFGStamp()
	return scratch{f: f, dt: dt, dtAt: c, domAt: c, cfgAt: c}
}

// dominanceChanged returns the CFG stamp of the last change to f's
// control flow that may have changed dominance.
func (s *scratch) dominanceChanged() uint32 {
	if c := s.f.CFGStamp(); c != s.cfgAt {
		s.domAt, s.cfgAt = c, c
	}
	return s.domAt
}

// keptDominance records that every change to f's control flow since the
// caller's last dominanceChanged left dominance among the surviving
// blocks as it was: a block absorbed into its only predecessor, an
// empty block's predecessors sent straight to its target, unreachable
// blocks erased. (SkipCheck's trivial-phi checks, which ask a fresh
// dominator tree, hold this to account.)
func (s *scratch) keptDominance() { s.cfgAt = s.f.CFGStamp() }

// domTree returns a dominator tree of f as it stands — one that answers
// dominance and reachability, at least: a tree built here outlives the
// rewrites that leave dominance alone (analysis.DomTree.Rekey).
func (s *scratch) domTree() *analysis.DomTree {
	c := s.f.CFGStamp()
	if s.dt != nil && s.dtAt != c && s.ownDT && s.dtAt >= s.dominanceChanged() {
		s.dt.Rekey()
		s.dtAt = c
	}
	if s.dt == nil || s.dtAt != c {
		s.dt, s.dtAt, s.ownDT = analysis.NewDomTree(s.f), c, true
	}
	return s.dt
}

// reachable reports, by block index, which blocks of f as it stands are
// reachable from its entry: by the dominator tree if one is at hand,
// else by a walk that is cheaper than building one.
func (s *scratch) reachable() []bool {
	if s.reach != nil && s.rchAt == s.f.CFGStamp() {
		return s.reach
	}
	s.reach, s.rchAt = slices.Grow(s.reach[:0], len(s.f.Blocks))[:len(s.f.Blocks)], s.f.CFGStamp()
	clear(s.reach)
	if s.dt != nil && s.dtAt == s.rchAt {
		for i, b := range s.f.Blocks {
			s.reach[i] = s.dt.IsReachable(b)
		}
		return s.reach
	}
	if s.f.Entry() == nil {
		return s.reach
	}
	s.walk = append(s.walk[:0], s.f.Entry())
	s.reach[0] = true
	for len(s.walk) > 0 {
		b := s.walk[len(s.walk)-1]
		s.walk = s.walk[:len(s.walk)-1]
		if t := b.Term(); t != nil {
			for _, op := range t.Operands() {
				if succ, ok := op.(*ir.Block); ok && !s.reach[succ.Index()] {
					s.reach[succ.Index()] = true
					s.walk = append(s.walk, succ)
				}
			}
		}
	}
	return s.reach
}

// hasUnreachable is RemoveUnreachable's trigger.
func (s *scratch) hasUnreachable() bool {
	for _, r := range s.reachable() {
		if !r {
			return true
		}
	}
	return false
}

// due reports whether pass p must visit block b: b changed since p last
// found it clean, or something p's trigger reads beyond b did — the
// branch target, for the passes that look through b's unconditional
// branch, and dominance (scratch.dominanceChanged). Some passes go by a
// narrower stamp of b's, for the only changes that can make their
// trigger fire: the phi passes by its phi stamp (only a change to b's
// phis can make two of them merge or one of them trivial), the folding
// of instructions by its operand stamp, and DCE by its use stamp (a
// value goes dead by losing a use). s serves the phi triggers under
// SkipCheck (nil will do for the other passes).
func due(p pass, b *ir.Block, s *scratch) bool {
	if b.Parent() == nil {
		return false // erased mid-sweep
	}
	if everyBlock {
		return true
	}
	at, stamp := b.Mark(int(p)), b.Stamp()
	switch p {
	case passTrivialPhis, passDuplicatePhis:
		stamp = b.PhiStamp()
	case passFoldInstructions:
		stamp = b.OperandStamp()
	case passDCE:
		stamp = b.UseStamp()
	}
	if stamp > at {
		return true
	}
	switch p {
	case passTrivialPhis:
		if s.dominanceChanged() > at {
			return true
		}
	case passMergeBlocks, passForwardEmpty:
		if t := brTarget(b); t != nil && t.Stamp() > at {
			return true
		}
	}
	if SkipCheck != nil && fires(p, b, allUses, s) {
		SkipCheck(p.String(), b.Parent(), b)
	}
	return false
}

// clean marks b clean for p at the function's current count; a pass
// calls it as its visit of b begins.
func clean(p pass, b *ir.Block) { b.SetMark(int(p), b.Parent().Edits()) }

// unreachableDue is due for RemoveUnreachable.
func unreachableDue(s *scratch) bool {
	f := s.f
	if everyBlock || f.CFGStamp() > f.Mark() {
		return true
	}
	if SkipCheck != nil && s.hasUnreachable() {
		SkipCheck(passUnreachable.String(), f, nil)
	}
	return false
}

// brTarget returns the target of b's unconditional branch, if it ends
// in one.
func brTarget(b *ir.Block) *ir.Block {
	t := b.Term()
	if t == nil || t.Op() != ir.OpBr || t.IsCondBr() {
		return nil
	}
	return t.Operand(0).(*ir.Block)
}

// fires is pass p's trigger at block b: whether p, visiting b now, would
// rewrite something. Uses are counted as v says.
func fires(p pass, b *ir.Block, v uses, s *scratch) bool {
	switch p {
	case passFoldInstructions:
		for _, in := range b.Instrs() {
			if foldConstExpr(in) != nil {
				return true
			}
		}
	case passFoldTerminators:
		t := b.Term()
		return t != nil && foldedTarget(t) != nil
	case passSinglePredPhis:
		if phisFoldable(b, v) {
			for _, phi := range b.Phis() {
				if phi.NumIncoming() == 1 {
					return true
				}
			}
		}
	case passTrivialPhis:
		for _, phi := range b.Phis() {
			if _, ok := trivialPhiValue(phi, s); ok {
				return true
			}
		}
	case passDuplicatePhis:
		return s.view.hasDuplicates(b)
	case passMergeBlocks:
		return absorbable(b, v) != nil
	case passForwardEmpty:
		return forwardTarget(b, v) != nil
	case passDCE:
		for _, in := range b.Instrs() {
			if dead(in, v) {
				return true
			}
		}
	}
	return false
}

// keptClean is a block a pass has nothing to do at.
type keptClean struct {
	blk *ir.Block
	p   pass
}

// keepAcross appends to out, and returns, the (block, pass) pairs that
// are not due now and whose stamps b's absorbing s — s's phis already
// folded — will move without changing the pass's trigger there: b
// erases its branch to s, takes s's instructions and takes s's place in
// the phis that named s. For the instruction and terminator passes b
// itself keeps its verdict if b and s were both clean — the instructions
// it ends with are the ones they held, with the same operands and uses
// — and so does each successor of s, which only swaps predecessor s for
// b. So does every other block using one of s's instructions: for
// instruction folding, which does not ask where a value is defined, and
// for the phi passes, with every block holding a phi that names s: every
// phi naming s is renamed alike, and what dominated s's instructions'
// users dominates them from b (b strictly dominates exactly the blocks s
// did, and b itself). A block whose phis name b already is left out for
// the duplicate pass: the renaming could pair its phis up.
func (sc *scratch) keepAcross(out []keptClean, b, s *ir.Block) []keptClean {
	instrPasses := [...]pass{passFoldInstructions, passFoldTerminators, passSinglePredPhis, passDCE}
	for _, p := range instrPasses {
		if !due(p, b, sc) && !due(p, s, sc) {
			out = append(out, keptClean{b, p})
		}
	}
	for _, op := range s.Term().Operands() {
		if c, ok := op.(*ir.Block); ok && c != s {
			for _, p := range instrPasses {
				if !due(p, c, sc) {
					out = append(out, keptClean{c, p})
				}
			}
		}
	}
	for _, in := range s.Instrs() {
		for _, u := range ir.UsesOf(in) {
			out = sc.keepUser(out, u.User, b)
		}
	}
	for _, u := range ir.UsesOf(s) {
		out = sc.keepUser(out, u.User, b)
	}
	return out
}

// keepUser is keepAcross for one user of s or its instructions.
func (sc *scratch) keepUser(out []keptClean, user *ir.Instruction, b *ir.Block) []keptClean {
	c := user.Parent()
	if c == nil || len(out) > 0 && out[len(out)-1].blk == c {
		return out
	}
	if user.Op() != ir.OpPhi {
		if !due(passFoldInstructions, c, sc) {
			out = append(out, keptClean{c, passFoldInstructions})
		}
		return out
	}
	if !due(passTrivialPhis, c, sc) {
		out = append(out, keptClean{c, passTrivialPhis})
	}
	if !due(passDuplicatePhis, c, sc) && !phisName(c, b) {
		out = append(out, keptClean{c, passDuplicatePhis})
	}
	return out
}

// phisName reports whether a phi of c has an incoming edge from b.
func phisName(c, b *ir.Block) bool {
	for _, phi := range c.Phis() {
		for i := 0; i < phi.NumIncoming(); i++ {
			if phi.IncomingBlock(i) == b {
				return true
			}
		}
	}
	return false
}

// settled reports whether none of passes has anything left to do in f:
// it asks each pass's trigger at every block due for it, marking the
// block clean where the trigger stays quiet, and stops at the first that
// fires. It writes nothing but marks, so a round loop that stops on it
// ends without a round that changes nothing.
func settled(s *scratch, passes ...pass) bool {
	if everyBlock {
		return false
	}
	f := s.f
	for _, p := range passes {
		if p == passUnreachable {
			if unreachableDue(s) {
				if s.hasUnreachable() {
					return false
				}
				f.SetMark(f.Edits())
			}
			continue
		}
		for _, b := range f.Blocks {
			if !due(p, b, s) {
				continue
			}
			if fires(p, b, allUses, s) {
				return false
			}
			clean(p, b)
		}
	}
	return true
}
