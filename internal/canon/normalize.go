package canon

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/analysis"
	"repro/internal/ir"
)

// Normalize canonicalizes operand and incoming orders on f in place
// (only ever called on a private view, never an original body):
// commutative binary operands are sorted by a deterministic value rank,
// icmp/fcmp operands likewise (swapping the predicate to compensate),
// and phi incomings are sorted by predecessor block position. Returns
// the number of instructions changed. The rank is name-free — locals
// rank by definition order, constants by type and value — so two
// functions that differ only in operand order converge on the same
// canonical sequence.
func Normalize(f *ir.Function) int {
	changedBlocks := orderBlocks(f)
	ranks := newRankTable(f)
	blockPos := make(map[*ir.Block]int, len(f.Blocks))
	for i, b := range f.Blocks {
		blockPos[b] = i
	}
	changed := changedBlocks
	for _, b := range f.Blocks {
		for _, in := range b.Instrs() {
			switch {
			case in.Op().IsCommutative() && in.NumOperands() == 2:
				if rankLess(ranks.of(in.Operand(1)), ranks.of(in.Operand(0))) {
					a, c := in.Operand(0), in.Operand(1)
					in.SetOperand(0, c)
					in.SetOperand(1, a)
					changed++
				}
			case in.Op() == ir.OpICmp || in.Op() == ir.OpFCmp:
				if rankLess(ranks.of(in.Operand(1)), ranks.of(in.Operand(0))) {
					a, c := in.Operand(0), in.Operand(1)
					in.SetOperand(0, c)
					in.SetOperand(1, a)
					in.Pred = in.Pred.Swapped()
					changed++
				}
			case in.Op() == ir.OpPhi:
				if sortIncomings(in, blockPos) {
					changed++
				}
			}
		}
	}
	return changed
}

// orderBlocks rewrites f's block layout into reverse postorder —
// layout-independent for a given CFG, so views of functions whose blocks
// merely sit at different positions (a split-edge mid block that
// absorbed its successor lives at the end of the layout) hash
// identically. Unreachable blocks, if any survive simplification, keep
// their relative order after the reachable ones. Reports 1 if the
// layout moved.
func orderBlocks(f *ir.Function) int {
	rpo := analysis.ReversePostorder(f)
	if len(rpo) == 0 {
		return 0
	}
	reachable := make(map[*ir.Block]bool, len(rpo))
	for _, b := range rpo {
		reachable[b] = true
	}
	order := make([]*ir.Block, 0, len(f.Blocks))
	order = append(order, rpo...)
	for _, b := range f.Blocks {
		if !reachable[b] {
			order = append(order, b)
		}
	}
	changed := 0
	for i := range f.Blocks {
		if f.Blocks[i] != order[i] {
			changed = 1
			break
		}
	}
	f.SetBlockOrder(order)
	return changed
}

// rank orders values for operand normalization: locals first (by
// definition order), then named symbols, then constants — so constants
// land on the right-hand side, the conventional canonical form. Values
// the rank cannot order deterministically tie, and ties never swap.
type rank struct {
	cls int // 0 locals, 1 symbols/other, 2 constants
	num int
	s   string
}

func rankLess(a, b rank) bool {
	if a.cls != b.cls {
		return a.cls < b.cls
	}
	if a.num != b.num {
		return a.num < b.num
	}
	return a.s < b.s
}

type rankTable struct{ local map[ir.Value]int }

// newRankTable numbers f's locals — parameters by position, instruction
// results by definition order — mirroring the local value numbering the
// structural hash uses.
func newRankTable(f *ir.Function) rankTable {
	local := make(map[ir.Value]int, f.NumInstrs()+len(f.Params()))
	n := 0
	for _, p := range f.Params() {
		local[p] = n
		n++
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs() {
			local[in] = n
			n++
		}
	}
	return rankTable{local: local}
}

func (t rankTable) of(v ir.Value) rank {
	if n, ok := t.local[v]; ok {
		return rank{cls: 0, num: n}
	}
	switch c := v.(type) {
	case *ir.ConstInt:
		return rank{cls: 2, num: int(c.V), s: "i|" + c.Type().String()}
	case *ir.ConstFloat:
		return rank{cls: 2, num: int(int64(math.Float64bits(c.V))), s: "f|" + c.Type().String()}
	case *ir.ConstNull:
		return rank{cls: 2, s: "n|" + c.Type().String()}
	case *ir.Undef:
		return rank{cls: 2, s: "u|" + c.Type().String()}
	case *ir.GlobalVar:
		return rank{cls: 1, s: "g|" + c.Name()}
	case *ir.Function:
		return rank{cls: 1, s: "f|" + c.Name()}
	default:
		// Unrankable (a block or foreign value): a fixed tie, so the
		// order is left alone.
		return rank{cls: 1}
	}
}

// sortIncomings orders a phi's incoming pairs by predecessor block
// position, reporting whether anything moved.
func sortIncomings(in *ir.Instruction, blockPos map[*ir.Block]int) bool {
	n := in.NumIncoming()
	if n < 2 {
		return false
	}
	type inc struct {
		v   ir.Value
		b   *ir.Block
		pos int
	}
	incs := make([]inc, n)
	for i := 0; i < n; i++ {
		b := in.IncomingBlock(i)
		pos, ok := blockPos[b]
		if !ok {
			// A predecessor outside the function's block list should be
			// impossible; leave the phi untouched rather than invent an
			// order.
			return false
		}
		incs[i] = inc{v: in.IncomingValue(i), b: b, pos: pos}
	}
	if sort.SliceIsSorted(incs, func(i, j int) bool { return incs[i].pos < incs[j].pos }) {
		return false
	}
	sort.Slice(incs, func(i, j int) bool { return incs[i].pos < incs[j].pos })
	for i, p := range incs {
		in.SetIncomingValue(i, p.v)
		in.SetIncomingBlock(i, p.b)
	}
	return true
}

// externKey names a non-local value for GVN class assignment; two
// operands with equal keys are the same abstract value. Shared with
// gvn.go.
func externKey(f *ir.Function, v ir.Value) (string, bool) {
	switch c := v.(type) {
	case *ir.ConstInt:
		return fmt.Sprintf("ci|%s|%d", c.Type().String(), c.V), true
	case *ir.ConstFloat:
		return fmt.Sprintf("cf|%s|%x", c.Type().String(), math.Float64bits(c.V)), true
	case *ir.ConstNull:
		return "nl|" + c.Type().String(), true
	case *ir.Undef:
		return "ud|" + c.Type().String(), true
	case *ir.GlobalVar:
		return "gv|" + c.Name(), true
	case *ir.Function:
		if c == f {
			return "self", true
		}
		return "fn|" + c.Name(), true
	default:
		return "", false
	}
}
