package search

import (
	"repro/internal/ir"
)

// EqualFunctions reports whether f and g are structurally identical up
// to local value names: same signature, same block/instruction shape,
// and operands that correspond under the positional value numbering —
// a local of f (parameter, block or instruction result) matches the
// local of g at the same position, as HashFunction numbers them, so the
// comparison allocates nothing. References to the enclosing function
// correspond to each other, so renamed recursive clones compare equal.
// The comparison is strict on operand order (no commutativity), so a
// true result means g's body computes exactly what f's does.
func EqualFunctions(f, g *ir.Function) bool {
	if f == g {
		return true
	}
	if !ir.TypesEqual(f.Sig(), g.Sig()) {
		return false
	}
	if f.IsDecl() || g.IsDecl() {
		return f.IsDecl() && g.IsDecl()
	}
	if len(f.Blocks) != len(g.Blocks) {
		return false
	}
	for i, fb := range f.Blocks {
		if fb.Len() != g.Blocks[i].Len() {
			return false
		}
	}
	for i, fb := range f.Blocks {
		gb := g.Blocks[i]
		for j, fin := range fb.Instrs() {
			if !equalInstr(f, g, fin, gb.Instrs()[j]) {
				return false
			}
		}
	}
	return true
}

// counterpart returns the local of g at v's position in f, or nil when
// v is not a local of f. f and g have the same shape.
func counterpart(f, g *ir.Function, v ir.Value) ir.Value {
	switch v := v.(type) {
	case *ir.Instruction:
		b := v.Parent()
		if b == nil || b.Parent() != f {
			return nil
		}
		i, j := b.Index(), v.Index()
		if i < 0 || i >= len(f.Blocks) || f.Blocks[i] != b || j < 0 || j >= b.Len() || b.Instrs()[j] != v {
			return nil
		}
		return g.Blocks[i].Instrs()[j]
	case *ir.Argument:
		if i := v.Index(); v.Parent() == f && i < len(f.Params()) && f.Param(i) == v {
			return g.Param(i)
		}
	case *ir.Block:
		if i := v.Index(); v.Parent() == f && i >= 0 && i < len(f.Blocks) && f.Blocks[i] == v {
			return g.Blocks[i]
		}
	}
	return nil
}

func equalInstr(f, g *ir.Function, a, b *ir.Instruction) bool {
	if a.Op() != b.Op() || a.Pred() != b.Pred() || a.Cleanup != b.Cleanup {
		return false
	}
	if !ir.TypesEqual(a.Type(), b.Type()) {
		return false
	}
	if (a.AllocTy() == nil) != (b.AllocTy() == nil) {
		return false
	}
	if a.AllocTy() != nil && !ir.TypesEqual(a.AllocTy(), b.AllocTy()) {
		return false
	}
	if a.NumOperands() != b.NumOperands() {
		return false
	}
	for i := 0; i < a.NumOperands(); i++ {
		oa, ob := a.Operand(i), b.Operand(i)
		if want := counterpart(f, g, oa); want != nil {
			if want != ob {
				return false
			}
			continue
		}
		// Not a local of f: constants compare structurally, the
		// enclosing functions correspond, everything else (globals,
		// other functions) must be the same symbol.
		if oa == ir.Value(f) && ob == ir.Value(g) {
			continue
		}
		if !ir.ValuesEqual(oa, ob) {
			return false
		}
	}
	return true
}

// FamiliesBy groups structurally identical defined functions: hash
// bucketing by hashOf, which must return HashFunction's value (the
// driver passes its per-function memo of it), then pairwise verification
// by EqualFunctions against each family's representative (hash equality
// alone is never trusted). Each returned family has at least two
// members; the representative comes first. Families and members keep
// the order of funcs, so the result is deterministic.
func FamiliesBy(funcs []*ir.Function, hashOf func(*ir.Function) uint64) [][]*ir.Function {
	buckets := make(map[uint64][]*ir.Function, len(funcs))
	var order []uint64
	for _, f := range funcs {
		if f.IsDecl() {
			continue
		}
		h := hashOf(f)
		if _, seen := buckets[h]; !seen {
			order = append(order, h)
		}
		buckets[h] = append(buckets[h], f)
	}
	var fams [][]*ir.Function
	for _, h := range order {
		bucket := buckets[h]
		// A bucket may hold several distinct families on hash collision;
		// peel verified families off front to back.
		for len(bucket) >= 2 {
			rep := bucket[0]
			fam := []*ir.Function{rep}
			rest := bucket[:0:0]
			for _, f := range bucket[1:] {
				if EqualFunctions(rep, f) {
					fam = append(fam, f)
				} else {
					rest = append(rest, f)
				}
			}
			if len(fam) >= 2 {
				fams = append(fams, fam)
			}
			bucket = rest
		}
	}
	return fams
}
