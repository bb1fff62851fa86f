package search

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ir"
	"repro/internal/synth"
)

// specEqualFunctions is the specification EqualFunctions is held to:
// the same comparison with the positional correspondence kept in a map
// from each local of f to its counterpart in g.
func specEqualFunctions(f, g *ir.Function) bool {
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
			if !specEqualInstr(f, g, corr, fin, gb.Instrs()[j]) {
				return false
			}
		}
	}
	return true
}

func specEqualInstr(f, g *ir.Function, corr map[ir.Value]ir.Value, a, b *ir.Instruction) bool {
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
		if oa == ir.Value(f) && ob == ir.Value(g) {
			continue
		}
		if !ir.ValuesEqual(oa, ob) {
			return false
		}
	}
	return true
}

// selfCalling clones f under name and points every function operand of
// the clone at the clone itself: two such clones of one body are
// renamed self-recursive clones of each other. The result need not be
// well typed; the comparison is structural. It also returns how many
// operands it rewired.
func selfCalling(f *ir.Function, name string) (*ir.Function, int) {
	g, _ := ir.CloneFunction(f, name)
	n := 0
	for _, b := range g.Blocks {
		for _, in := range b.Instrs() {
			for i, op := range in.Operands() {
				if _, ok := op.(*ir.Function); ok {
					in.SetOperand(i, g)
					n++
				}
			}
		}
	}
	return g, n
}

// TestEqualFunctionsMatchesSpec holds the map-free EqualFunctions to the
// map-based specification, both ways round, over every function of the
// three paper suites against: a renamed clone, a mutated clone (the
// suites' own mutation operators at rate 0.2), a later function of the
// same structural hash, the next function of the same instruction
// count, and — for each function that calls anything — two renamed
// clones whose every callee is the clone itself, against each other and
// against a plain clone. It then checks that all those comparisons
// together allocate nothing.
func TestEqualFunctionsMatchesSpec(t *testing.T) {
	type pair struct{ a, b *ir.Function }
	var pairs []pair
	for _, suite := range [][]synth.Profile{synth.SPEC2006(), synth.SPEC2017(), synth.MiBench()} {
		for _, p := range suite {
			m := synth.Generate(p)
			defined := m.Defined()
			b := synth.NewBuilder(m, rand.New(rand.NewSource(p.Seed)), p)
			byHash := map[uint64]*ir.Function{}
			bySize := map[int]*ir.Function{}
			for i, f := range defined {
				clone, _ := ir.CloneFunction(f, fmt.Sprintf("%s.c%d", f.Name(), i))
				pairs = append(pairs, pair{f, clone}, pair{f, b.Clone(f, fmt.Sprintf("%s.m%d", f.Name(), i), 0.2)})
				h := HashFunction(f)
				if g := byHash[h]; g != nil {
					pairs = append(pairs, pair{g, f})
				}
				byHash[h] = f
				if g := bySize[f.NumInstrs()]; g != nil {
					pairs = append(pairs, pair{g, f})
				}
				bySize[f.NumInstrs()] = f
				if s1, n := selfCalling(f, f.Name()+".s1"); n > 0 {
					s2, _ := selfCalling(f, f.Name()+".s2")
					pairs = append(pairs, pair{s1, s2}, pair{s1, clone})
				}
			}
		}
	}
	equal := 0
	for _, p := range pairs {
		for _, q := range []pair{p, {p.b, p.a}} {
			want := specEqualFunctions(q.a, q.b)
			if got := EqualFunctions(q.a, q.b); got != want {
				t.Fatalf("EqualFunctions(@%s, @%s) = %v, specification says %v", q.a.Name(), q.b.Name(), got, want)
			}
			if want {
				equal++
			}
		}
	}
	t.Logf("%d ordered pairs, %d equal", 2*len(pairs), equal)
	if raceEnabled {
		return
	}
	if n := testing.AllocsPerRun(1, func() {
		for _, p := range pairs {
			EqualFunctions(p.a, p.b)
			EqualFunctions(p.b, p.a)
		}
	}); n != 0 {
		t.Fatalf("%d comparisons allocate %v times, want 0", 2*len(pairs), n)
	}
}
