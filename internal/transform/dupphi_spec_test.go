package transform

// The specification RemoveDuplicatePhis and RemoveTrivialPhis are held
// to: the all-pairs scan and the sweep-everything-again loops they were
// before the phi view and the resweep, kept verbatim. The tests below
// demand the same printed function from both over hand-written blocks,
// seeded random ones and (dupphi_bodies_test.go) the merged bodies the
// generator really hands to clean-up.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/analysis"
	"repro/internal/ir"
)

// removeDuplicatePhisSpec is RemoveDuplicatePhis as it stood before the
// phi view: it merges phis within a block that are identical up
// to undef refinement: where one phi has undef for an incoming edge and
// the other has a concrete value, the concrete value wins (refining an
// undef is always sound). The paper relies on this clean-up to merge the
// identical phi-nodes that SalSSA copies from both input functions; the
// undef refinement additionally collapses the phis introduced by SSA
// repair into the copied phis they duplicate. Returns the number of phis
// removed.
func removeDuplicatePhisSpec(f *ir.Function) int {
	removed := 0
	for changed := true; changed; {
		changed = false
		for _, b := range f.Blocks {
			if len(b.Phis()) < 2 {
				continue
			}
			phis := append([]*ir.Instruction(nil), b.Phis()...)
			for i := 0; i < len(phis); i++ {
				if phis[i].Parent() == nil {
					continue
				}
				for j := i + 1; j < len(phis); j++ {
					if phis[j].Parent() == nil {
						continue
					}
					if mergePhiPairSpec(b, phis[i], phis[j]) {
						removed++
						changed = true
					}
				}
			}
		}
	}
	return removed
}

// mergePhiPairSpec merges redundant phis. Two phis merge when one refines
// the other *one-directionally*: every incoming of the weaker phi either
// equals the stronger phi's incoming or is undef. Bidirectional
// refinement (each phi concrete where the other is undef) is
// deliberately NOT performed here — that transformation is exactly
// phi-node coalescing, the paper's §4.4 optimisation, owned by the
// SalSSA generator so that the SalSSA-NoPC ablation stays meaningful.
func mergePhiPairSpec(blk *ir.Block, a, b *ir.Instruction) bool {
	if !ir.TypesEqual(a.Type(), b.Type()) || a.NumIncoming() != b.NumIncoming() {
		return false
	}
	aWeaker, bWeaker := true, true
	for i := 0; i < a.NumIncoming(); i++ {
		bv, ok := b.IncomingFor(a.IncomingBlock(i))
		if !ok {
			return false
		}
		av := a.IncomingValue(i)
		switch {
		case ir.ValuesEqual(av, bv):
		case (av == ir.Value(b) && bv == ir.Value(a)) ||
			(av == ir.Value(a) && bv == ir.Value(b)):
			// mutually/self recursive duplicates
		case isUndef(av):
			bWeaker = false
		case isUndef(bv):
			aWeaker = false
		default:
			return false
		}
		if !aWeaker && !bWeaker {
			return false
		}
	}
	weak, strong := b, a
	if !bWeaker {
		weak, strong = a, b
	}
	// Collapse self/mutual references through the erased phi.
	for i := 0; i < strong.NumIncoming(); i++ {
		if strong.IncomingValue(i) == ir.Value(weak) {
			strong.SetIncomingValue(i, strong)
		}
	}
	ir.ReplaceAllUsesWith(weak, strong)
	blk.Erase(weak)
	return true
}

// removeTrivialPhisSpec is RemoveTrivialPhis sweeping every block again
// after any change.
func removeTrivialPhisSpec(f *ir.Function, dt *analysis.DomTree) int {
	removed := 0
	for changed := true; changed; {
		changed = false
		for _, b := range f.Blocks {
			for i := 0; i < b.Len() && b.Instrs()[i].Op() == ir.OpPhi; {
				phi := b.Instrs()[i]
				unique, ok := trivialPhiValue(phi, dt)
				if !ok {
					i++
					continue
				}
				ir.ReplaceAllUsesWith(phi, unique)
				b.Erase(phi)
				removed++
				changed = true
			}
		}
	}
	return removed
}

// RemoveDuplicatePhisSpec and SetDupPhiCheck are for the package's
// external tests, which can reach the code generator.
var RemoveDuplicatePhisSpec = removeDuplicatePhisSpec

func SetDupPhiCheck(check func(f *ir.Function) func(removed int)) { dupPhiCheck = check }

// checkAgainstSpec runs both clean-ups over two builds of one function,
// by the specification on one and for real on the other, and demands the
// same count and text after each.
func checkAgainstSpec(t *testing.T, what string, build func() *ir.Function) (dups, trivial int) {
	t.Helper()
	want, got := build(), build()
	before := got.String()
	if want.String() != before {
		t.Fatalf("%s: the builder is not deterministic", what)
	}
	dups = removeDuplicatePhisSpec(want)
	if n := RemoveDuplicatePhis(got); n != dups || want.String() != got.String() {
		t.Fatalf("%s: RemoveDuplicatePhis removed %d, the specification %d\n--- input\n%s--- specification\n%s--- got\n%s",
			what, n, dups, before, want, got)
	}
	trivial = removeTrivialPhisSpec(want, analysis.NewDomTree(want))
	if n := RemoveTrivialPhis(got, analysis.NewDomTree(got)); n != trivial || want.String() != got.String() {
		t.Fatalf("%s: RemoveTrivialPhis removed %d, the specification %d\n--- input\n%s--- specification\n%s--- got\n%s",
			what, n, trivial, before, want, got)
	}
	return dups, trivial
}

// TestDuplicatePhisNamedCases: one hand-written block per rule of
// mergePhiPair, folded by the plain scan (as written) and through the
// view (padded past pairwiseMax with phis that match nothing).
func TestDuplicatePhisNamedCases(t *testing.T) {
	cases := []struct {
		name, phis string
		removed    int
	}{
		{"identical", `
  %p = phi i32 [ 1, %a ], [ %x, %b ]
  %q = phi i32 [ 1, %a ], [ %x, %b ]`, 1},
		{"first refines to second", `
  %p = phi i32 [ undef, %a ], [ %x, %b ]
  %q = phi i32 [ 1, %a ], [ %x, %b ]`, 1},
		{"second refines to first", `
  %p = phi i32 [ 1, %a ], [ %x, %b ]
  %q = phi i32 [ 1, %a ], [ undef, %b ]`, 1},
		{"bidirectional refinement is coalescing, not clean-up", `
  %p = phi i32 [ undef, %a ], [ %x, %b ]
  %q = phi i32 [ 1, %a ], [ undef, %b ]`, 0},
		{"self references", `
  %p = phi i32 [ %p, %a ], [ %x, %b ]
  %q = phi i32 [ %q, %a ], [ %x, %b ]`, 1},
		{"mutual references", `
  %p = phi i32 [ %q, %a ], [ %x, %b ]
  %q = phi i32 [ %p, %a ], [ %x, %b ]`, 1},
		{"permuted incoming order", `
  %p = phi i32 [ 1, %a ], [ %x, %b ]
  %q = phi i32 [ %x, %b ], [ 1, %a ]`, 1},
		{"permuted and refined", `
  %p = phi i32 [ 1, %a ], [ %x, %b ]
  %q = phi i32 [ undef, %b ], [ 1, %a ]`, 1},
		{"mixed types", `
  %p = phi i32 [ 1, %a ], [ 2, %b ]
  %q = phi i64 [ 1, %a ], [ 2, %b ]`, 0},
		{"all undef", `
  %p = phi i32 [ undef, %a ], [ undef, %b ]
  %q = phi i64 [ undef, %a ], [ undef, %b ]
  %r = phi i32 [ %x, %a ], [ %y, %b ]
  %s = phi i32 [ undef, %a ], [ undef, %b ]`, 2},
		{"equal constants, different objects", `
  %p = phi i32 [ 7, %a ], [ -1, %b ]
  %q = phi i32 [ 7, %a ], [ -1, %b ]
  %r = phi i32 [ 7, %a ], [ 1, %b ]`, 1},
		{"a merge enables an earlier pair", `
  %u = phi i32 [ %p, %a ], [ 3, %b ]
  %w = phi i32 [ %q, %a ], [ 3, %b ]
  %p = phi i32 [ 1, %a ], [ %x, %b ]
  %q = phi i32 [ 1, %a ], [ %x, %b ]`, 2},
		{"a refinement erases the first of the pair mid-scan", `
  %p = phi i32 [ undef, %a ], [ %x, %b ]
  %q = phi i32 [ 1, %a ], [ %x, %b ]
  %r = phi i32 [ undef, %a ], [ %x, %b ]`, 2},
		{"repeated edge", `
  %p = phi i32 [ 1, %a ], [ 1, %a ]
  %q = phi i32 [ 1, %a ], [ 1, %a ]
  %r = phi i32 [ 1, %a ], [ %x, %b ]`, 2}, // the lookup finds %a's value twice
		{"foreign block", `
  %p = phi i32 [ 1, %a ], [ %x, %entry ]
  %q = phi i32 [ 1, %a ], [ %x, %entry ]
  %r = phi i32 [ 1, %a ], [ %x, %b ]`, 1},
		{"different edge counts", `
  %p = phi i32 [ 1, %a ]
  %q = phi i32 [ 1, %a ], [ %x, %b ]
  %r = phi i32 [ 1, %a ]`, 1},
	}
	const padding = `
  %pad1 = phi i32 [ 101, %a ], [ 201, %b ]
  %pad2 = phi i32 [ 102, %a ], [ 202, %b ]
  %pad3 = phi i32 [ 103, %a ], [ undef, %b ]
  %pad4 = phi i32 [ undef, %a ], [ 204, %b ]
  %pad5 = phi i64 [ 105, %a ], [ 205, %b ]`
	for _, c := range cases {
		for _, padded := range []string{"", padding} {
			// The padding goes first and last in turn, so that the slot
			// order is once its and once the case's own.
			for _, body := range []string{padded + c.phis, c.phis + padded} {
				src := `
define i32 @f(i1 %c, i32 %x, i32 %y) {
entry:
  br i1 %c, label %a, label %b
a:
  br label %join
b:
  br label %join
join:` + body + `
  ret i32 %x
}`
				got, _ := checkAgainstSpec(t, c.name, func() *ir.Function { return parseFn(t, src, "f") })
				// Padding adds matches of its own (an all-undef phi
				// refines to anything of its type).
				if padded == "" && got != c.removed {
					t.Errorf("%s: removed %d phis, want %d\n%s", c.name, got, c.removed, src)
				}
				if padded == "" {
					break
				}
			}
		}
	}
}

// phiSym is one incoming value of a random phi before the phis exist:
// an index into the function's pool of plain values, undef, or "some phi
// of group g", resolved once every phi has been created.
type phiSym struct {
	pool  int // >= 0: index into the type's value pool
	group int // pool < 0: -1 undef, else a phi of this group
}

// randomPhiFunction builds, from the seed alone, a function whose join
// blocks hold phis derived from a few base incoming lists per type by
// the edits that make or break a duplicate: slots blanked to undef,
// one slot changed, the incoming list permuted, an edge repeated, a block
// from outside the order, an edge dropped; references to the phis of the
// own block (self, mutual, to a duplicate — so that one merge enables
// another) and of the other joins, before and after in block order (so
// that a merge dirties blocks on both sides of the sweep). Only the phis
// are meaningful; the CFG just holds the blocks together.
func randomPhiFunction(seed int64) *ir.Function {
	rng := rand.New(rand.NewSource(seed))
	types := []ir.Type{ir.I32, ir.I32, ir.I32, ir.I64, ir.F64}
	f := ir.NewFunction("f", ir.FuncOf(ir.Void, ir.I32, ir.I32, ir.I32, ir.I64, ir.I64, ir.F64, ir.F64))
	entry := f.NewBlockIn("entry")

	npreds := []int{1, 2, 2, 3, 3, 4, 5, 8, 8, 12}[rng.Intn(10)]
	if seed%9 == 0 {
		npreds = 65 + rng.Intn(10) // past one mask word
	}
	njoins := 1 + rng.Intn(3)
	joins := make([]*ir.Block, njoins)
	// One join may precede the predecessor blocks in block order.
	early := rng.Intn(2) == 0
	if early {
		joins[0] = f.NewBlockIn("j0")
	}
	preds := make([]*ir.Block, npreds+2) // the last two are in no slot order
	for i := range preds {
		preds[i] = f.NewBlockIn(fmt.Sprintf("p%d", i))
	}
	for i := range joins {
		if joins[i] == nil {
			joins[i] = f.NewBlockIn(fmt.Sprintf("j%d", i))
		}
	}

	// The plain values of each type: arguments, fresh constants with few
	// distinct payloads, instructions of the entry block.
	pool := map[ir.Type][]ir.Value{}
	for _, a := range f.Params() {
		pool[a.Type()] = append(pool[a.Type()], a)
	}
	for _, ty := range []ir.Type{ir.I32, ir.I64, ir.F64} {
		op := ir.OpAdd
		if ty == ir.F64 {
			op = ir.OpFAdd
		}
		for i := 0; i < 3; i++ {
			args := pool[ty]
			pool[ty] = append(pool[ty], entry.Append(ir.NewBinary(op, "", args[0], args[i%len(args)])))
		}
	}
	constant := func(ty ir.Type) ir.Value {
		if ty == ir.F64 {
			return ir.NewConstFloat(ir.F64, []float64{0, -1 * 0.0, 1.5, 2}[rng.Intn(4)])
		}
		return ir.NewConstInt(ty.(*ir.IntType), int64(rng.Intn(3)))
	}

	type group struct {
		ty   ir.Type
		base []phiSym
		phis []*ir.Instruction
	}
	type pending struct {
		phi    *ir.Instruction
		syms   []phiSym
		blocks []*ir.Block
	}
	var (
		groups []*group
		todo   []pending
	)
	randomSym := func(ty ir.Type) phiSym {
		switch r := rng.Intn(10); {
		case r < 1:
			return phiSym{pool: -1, group: -1}
		case r < 4 && len(groups) > 0:
			return phiSym{pool: -1, group: rng.Intn(len(groups) + 1)} // may be the group being made
		}
		return phiSym{pool: rng.Intn(len(pool[ty]) + 2)} // the last two: constants
	}
	for _, j := range joins {
		nphis := []int{2, 3, 4, 5, 6, 9, 14, 40}[rng.Intn(8)]
		ngroups := 1 + rng.Intn(4)
		mine := make([]*group, ngroups)
		for g := range mine {
			ty := types[rng.Intn(len(types))]
			mine[g] = &group{ty: ty}
			groups = append(groups, mine[g])
			for s := 0; s < npreds; s++ {
				mine[g].base = append(mine[g].base, randomSym(ty))
			}
			if rng.Intn(8) == 0 {
				for s := range mine[g].base {
					mine[g].base[s] = phiSym{pool: -1, group: -1} // all undef
				}
			}
		}
		for p := 0; p < nphis; p++ {
			g := mine[rng.Intn(ngroups)]
			syms := append([]phiSym(nil), g.base...)
			blocks := append([]*ir.Block(nil), preds[:npreds]...)
			if rng.Intn(3) == 0 {
				for s := range syms {
					if rng.Intn(3) == 0 {
						syms[s] = phiSym{pool: -1, group: -1}
					}
				}
			}
			if rng.Intn(6) == 0 {
				syms[rng.Intn(npreds)] = randomSym(g.ty)
			}
			if rng.Intn(3) == 0 {
				rng.Shuffle(npreds, func(x, y int) {
					syms[x], syms[y] = syms[y], syms[x]
					blocks[x], blocks[y] = blocks[y], blocks[x]
				})
			}
			switch rng.Intn(30) {
			case 0:
				blocks[rng.Intn(npreds)] = blocks[rng.Intn(npreds)]
			case 1:
				blocks[rng.Intn(npreds)] = preds[npreds+rng.Intn(2)]
			case 2:
				// Never down to no edge at all: once the specification has
				// erased the first phi of a pair it goes on comparing the
				// husk, which only an edgeless phi can match — and is
				// then "merged" into an erased instruction. The pass
				// stops at the erasure; the difference shows nowhere else.
				if npreds > 1 {
					syms, blocks = syms[:npreds-1], blocks[:npreds-1]
				}
			}
			phi := j.Append(ir.NewPhi("", g.ty))
			g.phis = append(g.phis, phi)
			todo = append(todo, pending{phi: phi, syms: syms, blocks: blocks})
		}
	}
	// Users, so that replacing a phi rewrites something that is not a
	// phi too; each is also a value defined in the join itself.
	for _, g := range groups {
		op := ir.OpAdd
		if g.ty == ir.F64 {
			op = ir.OpFAdd
		}
		for _, phi := range g.phis {
			pool[g.ty] = append(pool[g.ty], phi.Parent().Append(ir.NewBinary(op, "", phi, phi)))
		}
	}
	for _, p := range todo {
		ty := p.phi.Type()
		for s, sym := range p.syms {
			var v ir.Value
			switch {
			case sym.pool >= len(pool[ty]):
				v = constant(ty)
			case sym.pool >= 0:
				v = pool[ty][sym.pool]
			case sym.group < 0 || sym.group >= len(groups) || len(groups[sym.group].phis) == 0:
				v = ir.NewUndef(ty)
			default:
				of := groups[sym.group].phis
				v = of[rng.Intn(len(of))]
			}
			p.phi.AddIncoming(v, p.blocks[s])
		}
	}

	cases := make([]ir.SwitchCase, 0, len(preds))
	for i, p := range preds[1:] {
		cases = append(cases, ir.SwitchCase{Val: ir.NewConstInt(ir.I32, int64(i)), Dest: p})
	}
	entry.Append(ir.NewSwitch(f.Param(0), preds[0], cases...))
	for _, p := range preds {
		p.Append(ir.NewBr(joins[0]))
	}
	for i, j := range joins {
		if i+1 < len(joins) {
			j.Append(ir.NewBr(joins[i+1]))
		} else {
			j.Append(ir.NewRet(nil))
		}
	}
	return f
}

// TestDuplicatePhisMatchSpecRandom holds both passes to their
// specifications over seeded random phi blocks, and checks that the
// seeds reach what they are meant to reach.
func TestDuplicatePhisMatchSpecRandom(t *testing.T) {
	seeds := int64(1500)
	if testing.Short() {
		seeds = 400
	}
	var dups, trivial, merging, wide, resweeps int
	for seed := int64(0); seed < seeds; seed++ {
		d, tr := checkAgainstSpec(t, fmt.Sprintf("seed %d", seed), func() *ir.Function { return randomPhiFunction(seed) })
		dups += d
		trivial += tr
		if d > 0 {
			merging++
			f := randomPhiFunction(seed)
			if f.Entry().Term().NumOperands() > 2*64 {
				wide++
			}
			// A second full sweep that still finds work: one merge
			// enabled another.
			if firstSweepOnly(f) < d {
				resweeps++
			}
		}
	}
	t.Logf("%d seeds: %d duplicate and %d trivial phis removed; %d seeds merged something, %d of them past 64 predecessors, %d needed a second sweep",
		seeds, dups, trivial, merging, wide, resweeps)
	if merging < int(seeds)/3 || wide == 0 || resweeps == 0 {
		t.Errorf("the random blocks do not exercise the pass")
	}
}

// firstSweepOnly is one sweep of the specification: how many phis go
// before anything is revisited.
func firstSweepOnly(f *ir.Function) int {
	removed := 0
	for _, b := range f.Blocks {
		phis := append([]*ir.Instruction(nil), b.Phis()...)
		for i := range phis {
			for j := i + 1; j < len(phis); j++ {
				if phis[i].Parent() != nil && phis[j].Parent() != nil && mergePhiPairSpec(b, phis[i], phis[j]) {
					removed++
				}
			}
		}
	}
	return removed
}

// benchPhiBlock is one join of nphis phis over npreds predecessors, every
// twentieth a duplicate of an earlier one, the rest random draws from a
// pool of values.
func benchPhiBlock(nphis, npreds int) *ir.Function {
	rng := rand.New(rand.NewSource(1))
	f := ir.NewFunction("f", ir.FuncOf(ir.Void, ir.I32, ir.I32))
	entry, join := f.NewBlockIn("entry"), ir.NewBlock("join")
	values := []ir.Value{f.Param(0), f.Param(1)}
	for i := 0; i < 48; i++ {
		values = append(values, entry.Append(ir.NewBinary(ir.OpAdd, "", values[rng.Intn(len(values))], f.Param(i%2))))
	}
	preds := make([]*ir.Block, npreds)
	cases := make([]ir.SwitchCase, 0, npreds)
	for i := range preds {
		preds[i] = f.NewBlockIn(fmt.Sprintf("p%d", i))
		preds[i].Append(ir.NewBr(join))
		cases = append(cases, ir.SwitchCase{Val: ir.NewConstInt(ir.I32, int64(i)), Dest: preds[i]})
	}
	entry.Append(ir.NewSwitch(f.Param(0), preds[0], cases[1:]...))
	f.AddBlock(join)
	for p := 0; p < nphis; p++ {
		phi := join.Append(ir.NewPhi("", ir.I32))
		if p%20 == 19 {
			of := join.Phis()[rng.Intn(p)]
			for i := 0; i < npreds; i++ {
				phi.AddIncoming(of.IncomingValue(i), preds[i])
			}
			continue
		}
		for i := 0; i < npreds; i++ {
			phi.AddIncoming(values[rng.Intn(len(values))], preds[i])
		}
	}
	join.Append(ir.NewRet(nil))
	return f
}

// BenchmarkRemoveDuplicatePhis: the block the view is for (200 phis over
// 8 predecessors, 5% duplicates — rebuilt off the clock for every run,
// since a run folds it) and the common case it must not tax (two
// distinct phis, which a run leaves as they are), each by the pass and
// by its specification.
func BenchmarkRemoveDuplicatePhis(b *testing.B) {
	passes := []struct {
		name string
		run  func(*ir.Function) int
	}{{"view", RemoveDuplicatePhis}, {"spec", removeDuplicatePhisSpec}}
	for _, pass := range passes {
		b.Run("200x8/"+pass.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				f := benchPhiBlock(200, 8)
				b.StartTimer()
				if n := pass.run(f); n != 10 {
					b.Fatalf("removed %d phis, want 10", n)
				}
			}
		})
	}
	for _, pass := range passes {
		b.Run("2x3/"+pass.name, func(b *testing.B) {
			f := benchPhiBlock(2, 3)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if n := pass.run(f); n != 0 {
					b.Fatalf("removed %d phis, want 0", n)
				}
			}
		})
	}
}
