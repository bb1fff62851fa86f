package core

import (
	"repro/internal/align"
	"repro/internal/ir"
)

// Forced counts instructions the pairwise generator cannot avoid adding
// for one alignment: each is emitted by a rule the alignment alone
// decides, and survives promoteAndFold and transform.Simplify whenever
// neither original can be simplified on its own (see DESIGN.md,
// "Planning funnel", for the per-item argument). The cost model prices
// them (costmodel.ForcedBytes).
type Forced struct {
	// Selects counts operands of matched instructions whose two merged
	// values are certain to differ (assignValueOperands).
	Selects int
	// FidBranches counts matched rows after which the two members
	// continue in different merged blocks (buildCFG's chain dispatch).
	FidBranches int
	// LabelSelections counts matched conditional branches whose targets
	// need a label-selection block or the xor rewrite
	// (assignLabelOperands): at most one per branch pair.
	LabelSelections int
	// BranchUpgrades counts unconditional branches of the originals that
	// come out conditional on the identifier, which costs the difference
	// between the two: a matched pair that absorbs its label selection,
	// and the one forwarding continuation a chain dispatch bypasses when
	// the dispatch is not counted in full.
	BranchUpgrades int
	// Rejoins counts the unconditional branches that end a run of one
	// member's unmatched instructions and lead it back into a shared
	// block, for runs that start right after a counted chain dispatch.
	Rejoins int
}

// CountForced counts what the generator is forced to add when it merges
// the two functions numbered by n1 and n2 along pairs — an alignment of
// their linearizations, A entries from the first — under plan.
// It reads the alignment and the originals only: nothing is cloned,
// built or mutated. Whatever it cannot prove is left out, so each
// count is a lower bound on what Stats reports for the same merge.
func CountForced(pairs []align.Pair, n1, n2 *Numbering, plan *ParamPlan) Forced {
	return new(CutScratch).Count(pairs, n1, n2, plan)
}

// CutScratch is the storage of one stage-3 cut — the pair's throwaway
// parameter plan and CountForced's row table — kept by the caller from
// pair to pair, so that once it has grown a cut allocates nothing. It
// holds no pointer into a body, only the plan's parameter types.
type CutScratch struct {
	plan ParamPlan
	used []bool
	slab []int32
}

// Plan is PlanParams(f1, f2) into the scratch, or false when the two
// signatures do not unify. The plan is valid until the next Plan.
func (s *CutScratch) Plan(f1, f2 *ir.Function) (*ParamPlan, bool) {
	fns := [2]*ir.Function{f1, f2}
	if mismatch(fns[:]) >= 0 {
		return nil, false
	}
	s.used = s.plan.fill(fns[:], s.used)
	return &s.plan, true
}

// Count is CountForced with its row table in the scratch.
func (s *CutScratch) Count(pairs []align.Pair, n1, n2 *Numbering, plan *ParamPlan) Forced {
	// row[j][number] is 1 + the index of the matched row that places
	// member j's label or instruction, 0 for anything unmatched. Two
	// values are matched to each other exactly when their entries are
	// equal and non-zero.
	s.slab = resize(s.slab, n1.size+n2.size)
	clear(s.slab)
	slab := s.slab
	c := forcedCounter{
		num:  [2]*Numbering{n1, n2},
		row:  [2][]int32{slab[:n1.size], slab[n1.size:]},
		plan: plan,
	}
	for k, p := range pairs {
		if p.IsMatch() {
			c.row[0][n1.of(entryValue(p.A))] = int32(k + 1)
			c.row[1][n2.of(entryValue(p.B))] = int32(k + 1)
		}
	}

	var out Forced
	// Walking backwards keeps, for the row at hand, each member's next
	// entry and the next matched row within reach.
	var next [2]*align.Entry
	nextMatch := -1
	for k := len(pairs) - 1; k >= 0; k-- {
		p := pairs[k]
		if p.IsMatch() {
			// A matched label or non-terminator hands over to the next entry
			// of each member's block; they part ways unless that is one row.
			if (p.A.IsLabel() || !p.A.Instr.IsTerminator()) && !pairs[k+1].IsMatch() {
				out.dispatch(next, pairs, nextMatch)
			}
			if a, b := p.A.Instr, p.B.Instr; a != nil {
				out.Selects += c.selects(a, b)
				if a.Op() == ir.OpBr && c.labelSelection(a, b) {
					if a.IsCondBr() {
						out.LabelSelections++
					} else {
						out.BranchUpgrades++
					}
				}
			}
			nextMatch = k
		}
		if p.A != nil {
			next[0] = p.A
		}
		if p.B != nil {
			next[1] = p.B
		}
	}
	return out
}

// entryValue returns the label or instruction an alignment entry stands
// for.
func entryValue(e *align.Entry) ir.Value {
	if e.IsLabel() {
		return e.Label
	}
	return e.Instr
}

type forcedCounter struct {
	num  [2]*Numbering
	row  [2][]int32
	plan *ParamPlan
}

// dispatch accounts for the conditional branch appendDispatch emits
// after a matched row, given the entries the two members continue with
// (always instructions of the row's own blocks), and for the branches
// that lead them back. A member whose continuation is unmatched and
// whose block still holds its entry of the next matched row,
// pairs[nextMatch], runs through unmatched code of its own and rejoins
// the other member there; the rejoin block has a second predecessor, so
// the run's closing branch stays.
//
// Continuations that are both unconditional branches are two forwarding
// blocks, which fold onto one target when the labels behind them are
// matched. A single forwarding continuation is bypassed, which takes an
// original branch away: the dispatch then amounts to that branch made
// conditional, unless the other member's run rejoins, which costs the
// branch the bypass saved. A rejoin into a matched unconditional branch
// is never counted for itself — that block forwards, and the run's
// branch only replaces it.
func (out *Forced) dispatch(next [2]*align.Entry, pairs []align.Pair, nextMatch int) {
	var rejoins [2]bool
	if nextMatch >= 0 {
		for j, at := range [2]*align.Entry{pairs[nextMatch].A, pairs[nextMatch].B} {
			rejoins[j] = next[j] != at && !at.IsLabel() && at.Instr.Parent() == next[j].Instr.Parent()
		}
	}
	fwd0, fwd1 := isUncondBr(next[0].Instr), isUncondBr(next[1].Instr)
	switch {
	case fwd0 && fwd1:
	case !fwd0 && !fwd1:
		out.FidBranches++
		if (rejoins[0] || rejoins[1]) && !isUncondBr(pairs[nextMatch].A.Instr) {
			out.Rejoins += btoi(rejoins[0]) + btoi(rejoins[1])
		}
	case fwd0 && rejoins[1], fwd1 && rejoins[0]:
		out.FidBranches++
	default:
		out.BranchUpgrades++
	}
}

func isUncondBr(in *ir.Instruction) bool {
	return in.Op() == ir.OpBr && !in.IsCondBr()
}

// selects counts the operands of the matched pair (a, b) that need a
// select nothing can fold. A reorderable pair is counted under the
// cheaper of its two operand orders, whichever the generator picks.
func (c *forcedCounter) selects(a, b *ir.Instruction) int {
	if canReorder(a) {
		straight := btoi(c.differ(a.Operand(0), b.Operand(0))) + btoi(c.differ(a.Operand(1), b.Operand(1)))
		swapped := btoi(c.differ(a.Operand(0), b.Operand(1))) + btoi(c.differ(a.Operand(1), b.Operand(0)))
		return min(straight, swapped)
	}
	n := 0
	for i := 0; i < a.NumOperands(); i++ {
		n += btoi(c.differ(a.Operand(i), b.Operand(i)))
	}
	return n
}

// Operand kinds for differ.
const (
	// opaqueOperand marks a value whose select may fold or that never
	// gets one: labels, undef (select c, x, undef folds to x), and phis
	// and landingpad values, which reach the user through copied phis and
	// slot reloads that the phi clean-up is free to unify.
	opaqueOperand = iota
	instrOperand
	argOperand
	constOperand
)

func operandKind(v ir.Value) int {
	switch v := v.(type) {
	case *ir.Instruction:
		if v.Op() == ir.OpPhi || v.Op() == ir.OpLandingPad {
			return opaqueOperand
		}
		return instrOperand
	case *ir.Argument:
		return argOperand
	case *ir.Block, *ir.Undef, *ir.Placeholder:
		return opaqueOperand
	}
	return constOperand // constants, globals, functions
}

// differ reports whether member 0's operand v0 and member 1's operand
// v1 are certain to stay two different values in the merged function.
// Values of different kinds always do. Two instructions do unless they
// are matched to each other (one merged value) or both unmatched: SSA
// repair may coalesce two exclusive definitions into one variable, after
// which both arms of their select read one phi and it folds.
func (c *forcedCounter) differ(v0, v1 ir.Value) bool {
	k0, k1 := operandKind(v0), operandKind(v1)
	if k0 == opaqueOperand || k1 == opaqueOperand {
		return false
	}
	if k0 != k1 {
		return true
	}
	switch k0 {
	case instrOperand:
		return c.row[0][c.num[0].of(v0)] != c.row[1][c.num[1].of(v1)]
	case argOperand:
		return c.plan.Maps[0][v0.(*ir.Argument).Index()] != c.plan.Maps[1][v1.(*ir.Argument).Index()]
	}
	return !ir.ValuesEqual(v0, v1)
}

// labelSelection reports whether the matched branches a and b need a
// label selection that stays: some label operand whose targets are not
// matched to each other, neither of them a forwarding block (a
// selection between a forwarding block and its own destination folds).
// The Figure 11 xor rewrite trades two selections for one xor of the
// same price, so a pair counts once however many operands differ.
func (c *forcedCounter) labelSelection(a, b *ir.Instruction) bool {
	for i := 0; i < a.NumOperands(); i++ {
		t0, isLabel := a.Operand(i).(*ir.Block)
		if !isLabel {
			continue
		}
		t1 := b.Operand(i).(*ir.Block)
		r0, r1 := c.row[0][c.num[0].of(t0)], c.row[1][c.num[1].of(t1)]
		if r0 != 0 && r0 == r1 {
			continue
		}
		if !isUncondBr(t0.FirstNonPhi()) && !isUncondBr(t1.FirstNonPhi()) {
			return true
		}
	}
	return false
}
