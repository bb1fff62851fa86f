package synth

import (
	"math/rand"

	"repro/internal/ir"
	"repro/internal/transform"
)

// CanonNoise applies semantics-preserving noise to f in place: commuted
// operands, unfolded constant expressions, duplicated pure computations,
// redundant store/load pairs through fresh allocas, spurious
// single-predecessor block splits and dead blocks. Every mutation
// preserves observable behavior (interp-differential-checkable) but
// perturbs the structural hash and fingerprint, so exact clones noised
// independently stop indexing as duplicates — precisely the reducible
// divergence the canon pipeline is built to fold away. Returns the
// number of mutations applied.
func CanonNoise(rng *rand.Rand, f *ir.Function, rate float64) int {
	if len(f.Blocks) == 0 {
		return 0
	}
	n := 0
	n += noiseCommute(rng, f, rate)
	n += noiseUnfoldConst(rng, f, rate)
	n += noiseDupPure(rng, f, rate)
	n += noiseStoreLoad(rng, f, rate)
	n += noiseSplitEdges(rng, f, rate)
	n += noiseDeadBlocks(rng, f, rate)
	return n
}

// noiseCommute swaps the operands of commutative binaries and
// comparisons (compensating the predicate).
func noiseCommute(rng *rand.Rand, f *ir.Function, rate float64) int {
	n := 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs() {
			switch {
			case in.Op().IsCommutative() && in.NumOperands() == 2:
				if rng.Float64() < rate*3 {
					a, c := in.Operand(0), in.Operand(1)
					in.SetOperand(0, c)
					in.SetOperand(1, a)
					n++
				}
			case in.Op() == ir.OpICmp || in.Op() == ir.OpFCmp:
				if rng.Float64() < rate*3 {
					a, c := in.Operand(0), in.Operand(1)
					in.SetOperand(0, c)
					in.SetOperand(1, a)
					in.SetPred(in.Pred().Swapped())
					n++
				}
			}
		}
	}
	return n
}

// noiseUnfoldConst replaces an integer-constant operand c with a freshly
// materialized `add (c-1), 1` inserted before the user — an unfolded
// constant expression the canon pipeline's folding collapses back.
func noiseUnfoldConst(rng *rand.Rand, f *ir.Function, rate float64) int {
	n := 0
	for _, b := range f.Blocks {
		for _, in := range append([]*ir.Instruction(nil), b.Instrs()...) {
			op := in.Op()
			ok := op.IsBinary() || op == ir.OpICmp || op == ir.OpSelect ||
				op == ir.OpStore || op == ir.OpRet
			if !ok {
				continue
			}
			for i := 0; i < in.NumOperands(); i++ {
				c, isInt := in.Operand(i).(*ir.ConstInt)
				if !isInt {
					continue
				}
				ty, isTy := c.Type().(*ir.IntType)
				if !isTy || ty.Bits < 8 {
					continue
				}
				if rng.Float64() >= rate {
					continue
				}
				unfold := ir.NewBinary(ir.OpAdd, "",
					ir.NewConstInt(ty, c.V-1), ir.NewConstInt(ty, 1))
				b.InsertBefore(unfold, in)
				in.SetOperand(i, unfold)
				n++
			}
		}
	}
	return n
}

// noiseDupPure re-materializes a pure binary right before one of its
// users and redirects that use — a duplicated computation GVN folds.
// Only multi-use values are duplicated: stealing the sole use would let
// DCE delete the original, turning the mutation into code *motion*,
// which value numbering deliberately does not canonicalize.
func noiseDupPure(rng *rand.Rand, f *ir.Function, rate float64) int {
	n := 0
	var targets []*ir.Instruction
	for _, b := range f.Blocks {
		for _, in := range b.Instrs() {
			if in.Op().IsBinary() && len(ir.UsesOf(in)) >= 2 {
				targets = append(targets, in)
			}
		}
	}
	for _, v := range targets {
		if rng.Float64() >= rate {
			continue
		}
		for _, use := range append([]ir.Use(nil), ir.UsesOf(v)...) {
			u := use.User
			if u.Op() == ir.OpPhi || u.Parent() == nil {
				continue
			}
			dup := ir.NewBinary(v.Op(), "", v.Operand(0), v.Operand(1))
			u.Parent().InsertBefore(dup, u)
			u.SetOperand(use.Index, dup)
			n++
			break
		}
	}
	return n
}

// noiseStoreLoad routes one use of a value through a fresh alloca — a
// store right after the definition, a load right before the use — the
// redundant memory traffic mem2reg promotes away.
func noiseStoreLoad(rng *rand.Rand, f *ir.Function, rate float64) int {
	n := 0
	entry := f.Blocks[0]
	var targets []*ir.Instruction
	for _, b := range f.Blocks {
		for _, in := range b.Instrs() {
			if in.IsTerminator() {
				continue
			}
			switch in.Type().(type) {
			case *ir.IntType, *ir.FloatType:
				targets = append(targets, in)
			}
		}
	}
	for _, v := range targets {
		if rng.Float64() >= rate {
			continue
		}
		for _, use := range append([]ir.Use(nil), ir.UsesOf(v)...) {
			u := use.User
			if u.Op() == ir.OpPhi || u.Parent() == nil {
				continue
			}
			al := ir.NewAlloca("", v.Type())
			entry.InsertAtFront(al)
			st := ir.NewStore(v, al)
			if v.Op() == ir.OpPhi {
				v.Parent().InsertBefore(st, v.Parent().FirstNonPhi())
			} else {
				v.Parent().InsertAfter(st, v)
			}
			ld := ir.NewLoad("", al)
			u.Parent().InsertBefore(ld, u)
			u.SetOperand(use.Index, ld)
			n++
			break
		}
	}
	return n
}

// noiseSplitEdges inserts spurious single-predecessor blocks on branch
// edges (transform.SplitEdge), which CFG simplification forwards away.
func noiseSplitEdges(rng *rand.Rand, f *ir.Function, rate float64) int {
	type edge struct{ pred, succ *ir.Block }
	var edges []edge
	for _, b := range f.Blocks {
		term := b.Term()
		if term == nil {
			continue
		}
		succs := term.Succs()
		for _, s := range succs {
			dup := 0
			for _, t := range succs {
				if t == s {
					dup++
				}
			}
			if dup == 1 {
				edges = append(edges, edge{pred: b, succ: s})
			}
		}
	}
	n := 0
	for _, e := range edges {
		if rng.Float64() < rate {
			transform.SplitEdge(e.pred, e.succ)
			n++
		}
	}
	return n
}

// noiseDeadBlocks appends unreachable blocks, which canonicalization
// removes but the structural hash of the original body sees.
func noiseDeadBlocks(rng *rand.Rand, f *ir.Function, rate float64) int {
	n := 0
	for rng.Float64() < rate*4 && n < 3 {
		db := f.NewBlockIn("deadnoise")
		db.Append(ir.NewUnreachable())
		n++
	}
	return n
}

// CanonSuite generates the mutated-clone benchmark corpus for canon
// recall measurement: the standard suite shape with exact clone families
// (MutRate 0), then independent semantics-preserving CanonNoise on every
// function. Family members are behaviorally identical but structurally
// divergent, so the recall recovered by canonical-view indexing is
// exactly the duplicate structure the noise hid.
func CanonSuite(funcs int, seed int64) *ir.Module {
	p := SuiteProfile(funcs, seed)
	p.Name = "canon"
	p.MutRate = 0
	m := Generate(p)
	rng := rand.New(rand.NewSource(seed*7919 + 17))
	for _, f := range m.Defined() {
		CanonNoise(rng, f, 0.06)
	}
	return m
}
