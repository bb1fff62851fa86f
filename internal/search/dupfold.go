package search

import (
	"repro/internal/ir"
)

// EqualFunctions reports whether f and g are structurally identical up
// to local value names: same signature, same block/instruction shape,
// and operands that correspond under the positional value numbering.
// References to the enclosing function correspond to each other, so
// renamed recursive clones compare equal. The comparison is strict on
// operand order (no commutativity), so a true result means g's body
// computes exactly what f's does.
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
	// Positional correspondence f-value -> g-value.
	corr := make(map[ir.Value]ir.Value, f.NumInstrs()+len(f.Params())+len(f.Blocks))
	for i, p := range f.Params() {
		corr[p] = g.Param(i)
	}
	for i, fb := range f.Blocks {
		gb := g.Blocks[i]
		if len(fb.Instrs()) != len(gb.Instrs()) {
			return false
		}
		corr[fb] = gb
		for j, fin := range fb.Instrs() {
			corr[fin] = gb.Instrs()[j]
		}
	}
	for i, fb := range f.Blocks {
		gb := g.Blocks[i]
		for j, fin := range fb.Instrs() {
			if !equalInstr(f, g, corr, fin, gb.Instrs()[j]) {
				return false
			}
		}
	}
	return true
}

func equalInstr(f, g *ir.Function, corr map[ir.Value]ir.Value, a, b *ir.Instruction) bool {
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
		if want, ok := corr[oa]; ok {
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

// Families groups structurally identical defined functions: hash
// bucketing by HashFunction, then pairwise verification against each
// family's representative (hash equality alone is never trusted). Each
// returned family has at least two members; the representative comes
// first. Families and members keep the order of funcs, so the result is
// deterministic.
func Families(funcs []*ir.Function) [][]*ir.Function {
	return FamiliesBy(funcs, HashFunction)
}

// FamiliesBy is Families bucketing by a caller-supplied hashOf, which
// must return HashFunction's value (the driver passes its per-session
// memo of it). Verification is always EqualFunctions.
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

// BuildForwarder replaces dup's body with a tail forwarder to rep:
// dup(args...) becomes "return rep(args...)". The signatures must be
// equal (the duplicate-fold caller guarantees it via EqualFunctions).
func BuildForwarder(dup, rep *ir.Function) {
	if !ir.TypesEqual(dup.Sig(), rep.Sig()) {
		panic("search: BuildForwarder signature mismatch")
	}
	dup.Clear()
	entry := dup.NewBlockIn("entry")
	args := make([]ir.Value, len(dup.Params()))
	for i, p := range dup.Params() {
		args[i] = p
	}
	call := ir.NewCall("", rep, args...)
	entry.Append(call)
	if ir.IsVoid(rep.Sig().Ret) {
		entry.Append(ir.NewRet(nil))
	} else {
		entry.Append(ir.NewRet(call))
	}
}
