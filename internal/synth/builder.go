// Package synth generates deterministic synthetic IR modules that stand
// in for the paper's benchmark suites (SPEC CPU2006/2017 and MiBench,
// which are proprietary/unavailable offline). Function merging profit
// depends on the *function-similarity structure* of a module — clone
// families with small mutations (C++ template instantiations, copy-
// pasted C routines) — and on how much state crosses basic-block
// boundaries (what register demotion inflates). The generator reproduces
// those properties:
//
//   - functions are built as C-frontend-like code (locals in stack
//     slots), then register promotion yields naturally phi-rich SSA;
//   - a configurable fraction of functions come in families: a template
//     plus near-clones derived by seeded mutation (constants, callees,
//     operands, inserted statements);
//   - loops, diamonds, switches, calls and optionally invoke/landingpad
//     exception handling appear with benchmark-specific frequencies.
package synth

import (
	"fmt"
	"math/rand"

	"repro/internal/ir"
)

// extLib is the external library shared by all synthetic programs.
// Mutations swap callees only within the same signature class.
var extSigs = []struct {
	name string
	sig  *ir.FuncType
}{
	{"lib_a1", ir.FuncOf(ir.I32, ir.I32)},
	{"lib_a2", ir.FuncOf(ir.I32, ir.I32)},
	{"lib_a3", ir.FuncOf(ir.I32, ir.I32)},
	{"lib_b1", ir.FuncOf(ir.I32, ir.I32, ir.I32)},
	{"lib_b2", ir.FuncOf(ir.I32, ir.I32, ir.I32)},
	{"lib_c1", ir.FuncOf(ir.Void, ir.I32)},
	{"lib_c2", ir.FuncOf(ir.Void, ir.I32)},
	{"lib_d1", ir.FuncOf(ir.F64, ir.F64)},
	{"lib_d2", ir.FuncOf(ir.F64, ir.F64)},
}

// declareLib adds the external library declarations to m.
func declareLib(m *ir.Module) {
	for _, e := range extSigs {
		if m.FuncByName(e.name) == nil {
			m.AddFunc(ir.NewFunction(e.name, e.sig))
		}
	}
}

// libBySig returns the external functions of m grouped by signature
// class index.
func libOf(m *ir.Module) [][]*ir.Function {
	groups := map[string][]*ir.Function{}
	var order []string
	for _, e := range extSigs {
		key := e.sig.String()
		if _, ok := groups[key]; !ok {
			order = append(order, key)
		}
		groups[key] = append(groups[key], m.FuncByName(e.name))
	}
	out := make([][]*ir.Function, len(order))
	for i, key := range order {
		out[i] = groups[key]
	}
	return out
}

// shape controls the statistical profile of one generated function.
type shape struct {
	size     int     // instruction budget (pre-promotion, approximate)
	loops    float64 // probability weight of loop regions
	floats   float64 // probability a statement uses double arithmetic
	excRate  float64 // probability a call becomes an invoke
	switches float64 // probability weight of switch regions
}

// fnBuilder emits one function in pre-promotion (stack-slot) form.
type fnBuilder struct {
	rng    *rand.Rand
	m      *ir.Module
	f      *ir.Function
	entry  *ir.Block
	cur    *ir.Block
	slots  []*ir.Instruction // i32 locals
	fslots []*ir.Instruction // f64 locals
	budget int
	sh     shape
	nblock int
	lib    [][]*ir.Function
}

// buildFunction generates a function named name with nparams i32
// parameters under the given shape. The result is in stack-slot form
// (callers promote it with transform.Mem2Reg).
func buildFunction(m *ir.Module, rng *rand.Rand, lib [][]*ir.Function, name string, nparams int, sh shape) *ir.Function {
	params := make([]ir.Type, nparams)
	for i := range params {
		params[i] = ir.I32
	}
	f := ir.NewFunction(name, ir.FuncOf(ir.I32, params...))
	m.AddFunc(f)
	b := &fnBuilder{rng: rng, m: m, f: f, sh: sh, budget: sh.size, lib: lib}
	b.entry = f.NewBlockIn("entry")
	b.cur = b.entry

	// Locals: a few i32 slots (plus f64 slots when the profile uses
	// floating point), initialised from parameters and constants.
	nslots := 2 + rng.Intn(3)
	for i := 0; i < nslots; i++ {
		slot := ir.NewAlloca(fmt.Sprintf("v%d", i), ir.I32)
		b.entry.Append(slot)
		b.slots = append(b.slots, slot)
	}
	if sh.floats > 0 {
		for i := 0; i < 1+rng.Intn(2); i++ {
			slot := ir.NewAlloca(fmt.Sprintf("d%d", i), ir.F64)
			b.entry.Append(slot)
			b.fslots = append(b.fslots, slot)
		}
	}
	for i, slot := range b.slots {
		var init ir.Value
		if i < nparams {
			init = f.Param(i)
		} else {
			init = ir.NewConstInt(ir.I32, int64(rng.Intn(64)))
		}
		b.entry.Append(ir.NewStore(init, slot))
	}
	for _, slot := range b.fslots {
		b.entry.Append(ir.NewStore(ir.NewConstFloat(ir.F64, float64(rng.Intn(16))), slot))
	}

	for b.budget > 0 {
		b.region()
	}
	// Return an accumulated local.
	ret := ir.NewLoad("r", b.pickSlot())
	b.cur.Append(ret)
	b.cur.Append(ir.NewRet(ret))
	return f
}

func (b *fnBuilder) newBlock(pref string) *ir.Block {
	b.nblock++
	return b.f.NewBlockIn(fmt.Sprintf("%s%d", pref, b.nblock))
}

func (b *fnBuilder) pickSlot() *ir.Instruction {
	return b.slots[b.rng.Intn(len(b.slots))]
}

// operand loads a random local or picks a parameter/constant.
func (b *fnBuilder) operand() ir.Value {
	switch b.rng.Intn(4) {
	case 0:
		if n := len(b.f.Params()); n > 0 {
			return b.f.Param(b.rng.Intn(n))
		}
		fallthrough
	case 1:
		return ir.NewConstInt(ir.I32, int64(b.rng.Intn(32)-8))
	default:
		ld := ir.NewLoad("t", b.pickSlot())
		b.cur.Append(ld)
		b.budget--
		return ld
	}
}

var intOps = []ir.Opcode{
	ir.OpAdd, ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpAnd,
	ir.OpOr, ir.OpXor, ir.OpShl, ir.OpAShr,
}

// statement emits one computation into the current block.
func (b *fnBuilder) statement() {
	switch {
	case len(b.fslots) > 0 && b.rng.Float64() < b.sh.floats:
		b.floatStatement()
	case b.rng.Float64() < 0.22:
		b.callStatement()
	default:
		// A chain of block-local temporaries ending in one store: real
		// code keeps most values short-lived inside a block, which is
		// what keeps the paper's demotion inflation near 1.73x rather
		// than demoting every single value.
		depth := 2 + b.rng.Intn(4)
		v := ir.NewBinary(intOps[b.rng.Intn(len(intOps))], "s", b.operand(), b.operand())
		b.cur.Append(v)
		b.budget--
		for i := 1; i < depth; i++ {
			v = ir.NewBinary(intOps[b.rng.Intn(len(intOps))], "s", v, b.operand())
			b.cur.Append(v)
			b.budget--
		}
		b.cur.Append(ir.NewStore(v, b.pickSlot()))
		b.budget--
	}
}

func (b *fnBuilder) floatStatement() {
	slot := b.fslots[b.rng.Intn(len(b.fslots))]
	ld := ir.NewLoad("ft", slot)
	b.cur.Append(ld)
	ops := []ir.Opcode{ir.OpFAdd, ir.OpFMul, ir.OpFSub}
	v := ir.NewBinary(ops[b.rng.Intn(len(ops))], "fs", ld, ir.NewConstFloat(ir.F64, 1+float64(b.rng.Intn(4))))
	b.cur.Append(v)
	b.cur.Append(ir.NewStore(v, slot))
	b.budget -= 3
}

// callStatement emits a call (or invoke) to a library function.
func (b *fnBuilder) callStatement() {
	group := b.lib[b.rng.Intn(3)] // int-valued groups
	callee := group[b.rng.Intn(len(group))]
	args := make([]ir.Value, len(callee.Sig().Params))
	for i := range args {
		args[i] = b.operand()
	}
	if b.rng.Float64() < b.sh.excRate {
		normal := b.newBlock("ok")
		pad := b.newBlock("pad")
		inv := ir.NewInvoke("c", callee, args, normal, pad)
		b.cur.Append(inv)
		lp := ir.NewLandingPad("lp", true)
		pad.Append(lp)
		pad.Append(ir.NewResume(lp))
		b.cur = normal
		if !ir.IsVoid(inv.Type()) {
			b.cur.Append(ir.NewStore(inv, b.pickSlot()))
		}
		b.budget -= 4
		return
	}
	call := ir.NewCall("c", callee, args...)
	b.cur.Append(call)
	if !ir.IsVoid(call.Type()) {
		b.cur.Append(ir.NewStore(call, b.pickSlot()))
	}
	b.budget -= 2
}

// region emits one structured control-flow region.
func (b *fnBuilder) region() {
	r := b.rng.Float64()
	switch {
	case r < 0.35:
		n := 1 + b.rng.Intn(3)
		for i := 0; i < n; i++ {
			b.statement()
		}
	case r < 0.55:
		b.ifRegion(b.rng.Intn(2) == 0)
	case r < 0.55+b.sh.loops:
		b.loopRegion()
	case r < 0.55+b.sh.loops+b.sh.switches:
		b.switchRegion()
	default:
		b.statement()
	}
}

// ifRegion emits if or if/else on a comparison of a local.
func (b *fnBuilder) ifRegion(hasElse bool) {
	ld := ir.NewLoad("c", b.pickSlot())
	b.cur.Append(ld)
	preds := []ir.CmpPred{ir.PredSLT, ir.PredSGT, ir.PredEQ, ir.PredNE, ir.PredSLE}
	cmp := ir.NewICmp("p", preds[b.rng.Intn(len(preds))], ld, ir.NewConstInt(ir.I32, int64(b.rng.Intn(32))))
	b.cur.Append(cmp)
	then := b.newBlock("then")
	join := b.newBlock("join")
	alt := join
	if hasElse {
		alt = b.newBlock("else")
	}
	b.cur.Append(ir.NewCondBr(cmp, then, alt))
	b.budget -= 3

	b.cur = then
	for i := 0; i < 1+b.rng.Intn(3); i++ {
		b.statement()
	}
	b.cur.Append(ir.NewBr(join))
	if hasElse {
		b.cur = alt
		for i := 0; i < 1+b.rng.Intn(3); i++ {
			b.statement()
		}
		b.cur.Append(ir.NewBr(join))
	}
	b.cur = join
}

// loopRegion emits a counted loop (always terminating).
func (b *fnBuilder) loopRegion() {
	i := ir.NewAlloca("i", ir.I32)
	b.entry.InsertAtFront(i)
	b.cur.Append(ir.NewStore(ir.NewConstInt(ir.I32, 0), i))
	head := b.newBlock("head")
	body := b.newBlock("body")
	exit := b.newBlock("exit")
	b.cur.Append(ir.NewBr(head))

	bound := ir.NewConstInt(ir.I32, int64(2+b.rng.Intn(5)))
	ld := ir.NewLoad("iv", i)
	head.Append(ld)
	cmp := ir.NewICmp("lc", ir.PredSLT, ld, bound)
	head.Append(cmp)
	head.Append(ir.NewCondBr(cmp, body, exit))

	b.cur = body
	for s := 0; s < 1+b.rng.Intn(3); s++ {
		b.statement()
	}
	ld2 := ir.NewLoad("iv2", i)
	b.cur.Append(ld2)
	inc := ir.NewBinary(ir.OpAdd, "inc", ld2, ir.NewConstInt(ir.I32, 1))
	b.cur.Append(inc)
	b.cur.Append(ir.NewStore(inc, i))
	b.cur.Append(ir.NewBr(head))
	b.budget -= 8
	b.cur = exit
}

// switchRegion emits a small switch over a local.
func (b *fnBuilder) switchRegion() {
	ld := ir.NewLoad("sw", b.pickSlot())
	b.cur.Append(ld)
	masked := ir.NewBinary(ir.OpAnd, "swm", ld, ir.NewConstInt(ir.I32, 3))
	b.cur.Append(masked)
	join := b.newBlock("sjoin")
	def := b.newBlock("sdef")
	ncases := 2 + b.rng.Intn(2)
	cases := make([]ir.SwitchCase, ncases)
	for c := 0; c < ncases; c++ {
		blk := b.newBlock("scase")
		cases[c] = ir.SwitchCase{Val: ir.NewConstInt(ir.I32, int64(c)), Dest: blk}
	}
	b.cur.Append(ir.NewSwitch(masked, def, cases...))
	b.budget -= 2 + ncases
	for _, c := range cases {
		b.cur = c.Dest
		b.statement()
		b.cur.Append(ir.NewBr(join))
	}
	b.cur = def
	b.statement()
	b.cur.Append(ir.NewBr(join))
	b.cur = join
}
