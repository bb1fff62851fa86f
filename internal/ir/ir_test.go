package ir

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestTypesEqualStructural(t *testing.T) {
	cases := []struct {
		a, b Type
		want bool
	}{
		{I32, &IntType{Bits: 32}, true},
		{I32, I64, false},
		{PtrTo(I32), PtrTo(I32), true},
		{PtrTo(I32), PtrTo(I64), false},
		{ArrayOf(4, I8), ArrayOf(4, I8), true},
		{ArrayOf(4, I8), ArrayOf(5, I8), false},
		{StructOf(I32, F64), StructOf(I32, F64), true},
		{StructOf(I32), StructOf(I32, I32), false},
		{FuncOf(Void, I32), FuncOf(Void, I32), true},
		{FuncOf(Void, I32), FuncOf(I32, I32), false},
		{Void, Void, true},
		{Label, Label, true},
		{F32, F64, false},
	}
	for _, c := range cases {
		if got := TypesEqual(c.a, c.b); got != c.want {
			t.Errorf("TypesEqual(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestTypeStrings(t *testing.T) {
	cases := map[string]Type{
		"i32":            I32,
		"i1":             I1,
		"double":         F64,
		"float":          F32,
		"i8*":            PtrTo(I8),
		"[4 x i32]":      ArrayOf(4, I32),
		"{i8*, i32}":     LandingPadResultType,
		"void ()":        FuncOf(Void),
		"i32 (i32, ...)": &FuncType{Ret: I32, Params: []Type{I32}, Variadic: true},
	}
	for want, ty := range cases {
		if got := ty.String(); got != want {
			t.Errorf("%v.String() = %q, want %q", ty, got, want)
		}
	}
}

// TestConstIntTruncation: constants store sign-extended truncated values.
func TestConstIntTruncation(t *testing.T) {
	if v := NewConstInt(I8, 200).V; v != -56 {
		t.Errorf("i8 200 = %d, want -56", v)
	}
	if v := NewConstInt(I1, 1).V; v != -1 {
		t.Errorf("i1 1 = %d, want -1 (sign extended)", v)
	}
	if v := NewConstInt(I64, -5).V; v != -5 {
		t.Errorf("i64 -5 = %d", v)
	}
}

// Property: trunc-extend is idempotent and bounded.
func TestTruncExtendProperties(t *testing.T) {
	f := func(v int64) bool {
		for _, bits := range []int{1, 8, 16, 32, 64} {
			x := truncExtend(v, bits)
			if truncExtend(x, bits) != x {
				return false
			}
			if bits < 64 {
				limit := int64(1) << uint(bits-1)
				if x >= limit || x < -limit {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUseListsMaintained(t *testing.T) {
	a := NewConstInt(I32, 1)
	f := NewFunction("f", FuncOf(I32, I32))
	arg := f.Param(0)
	add := NewBinary(OpAdd, "x", arg, a)
	if len(UsesOf(arg)) != 1 {
		t.Fatalf("arg has %d uses, want 1", len(UsesOf(arg)))
	}
	mul := NewBinary(OpMul, "y", add, add)
	if len(UsesOf(add)) != 2 {
		t.Fatalf("add has %d uses, want 2", len(UsesOf(add)))
	}
	// RAUW moves every use.
	sub := NewBinary(OpSub, "z", arg, a)
	ReplaceAllUsesWith(add, sub)
	if len(UsesOf(add)) != 0 || len(UsesOf(sub)) != 2 {
		t.Fatalf("RAUW left add=%d sub=%d uses", len(UsesOf(add)), len(UsesOf(sub)))
	}
	if mul.Operand(0) != Value(sub) || mul.Operand(1) != Value(sub) {
		t.Error("mul operands not rewritten")
	}
	// dropOperands unregisters.
	mul.dropOperands()
	if len(UsesOf(sub)) != 0 {
		t.Error("dropOperands left stale uses")
	}
	// Nor does a list keep a former user reachable past its length: that
	// pinned whole discarded trial bodies (DESIGN.md "Merge families").
	for _, l := range []*useList{&add.useList, &sub.useList} {
		for _, u := range l.us[:cap(l.us)] {
			if u.User != nil {
				t.Errorf("a vacated use-list slot still points at %v", u.User.op)
			}
		}
	}
}

func TestPhiAccessors(t *testing.T) {
	b1, b2 := NewBlock("a"), NewBlock("b")
	phi := NewPhi("p", I32)
	phi.AddIncoming(NewConstInt(I32, 1), b1)
	phi.AddIncoming(NewConstInt(I32, 2), b2)
	if phi.NumIncoming() != 2 {
		t.Fatalf("NumIncoming = %d", phi.NumIncoming())
	}
	if v, ok := phi.IncomingFor(b2); !ok || v.(*ConstInt).V != 2 {
		t.Errorf("IncomingFor(b) = %v, %v", v, ok)
	}
	phi.RemoveIncoming(0)
	if phi.NumIncoming() != 1 || phi.IncomingBlock(0) != b2 {
		t.Error("RemoveIncoming(0) broke the pair list")
	}
	if len(UsesOf(b1)) != 0 {
		t.Error("removed incoming block still used")
	}
}

func TestBlockSurgeryAndPreds(t *testing.T) {
	f := NewFunction("f", FuncOf(Void))
	e := f.NewBlockIn("entry")
	a := f.NewBlockIn("a")
	b := f.NewBlockIn("b")
	e.Append(NewCondBr(True, a, b))
	a.Append(NewBr(b))
	b.Append(NewRet(nil))
	preds := b.Preds()
	if len(preds) != 2 {
		t.Fatalf("b has %d preds, want 2", len(preds))
	}
	if got := a.Succs(); len(got) != 1 || got[0] != b {
		t.Errorf("a.Succs() = %v", got)
	}
	if !e.IsEntry() || a.IsEntry() {
		t.Error("IsEntry wrong")
	}
	// Erase a; retarget e's branch first.
	e.Term().ReplaceSuccessor(a, b)
	f.EraseBlock(a)
	if len(b.Preds()) != 1 {
		t.Errorf("b has %d preds after erase, want 1 (deduped)", len(b.Preds()))
	}
}

func TestCloneFunctionIndependence(t *testing.T) {
	f := NewFunction("f", FuncOf(I32, I32))
	e := f.NewBlockIn("entry")
	add := NewBinary(OpAdd, "x", f.Param(0), NewConstInt(I32, 1))
	e.Append(add)
	e.Append(NewRet(add))

	clone, vmap := CloneFunction(f, "g")
	if err := VerifyFunction(clone); err != nil {
		t.Fatalf("clone verify: %v", err)
	}
	if vmap[add] == Value(add) {
		t.Error("clone shares instructions with original")
	}
	// Mutating the clone must not touch the original.
	cadd := vmap[add].(*Instruction)
	cadd.SetOperand(1, NewConstInt(I32, 99))
	if add.Operand(1).(*ConstInt).V != 1 {
		t.Error("clone mutation leaked into original")
	}
}

func TestCloneModuleRemapsCallees(t *testing.T) {
	m := NewModule()
	callee := NewFunction("callee", FuncOf(Void))
	m.AddFunc(callee)
	ce := callee.NewBlockIn("e")
	ce.Append(NewRet(nil))
	caller := NewFunction("caller", FuncOf(Void))
	m.AddFunc(caller)
	be := caller.NewBlockIn("e")
	be.Append(NewCall("", callee))
	be.Append(NewRet(nil))

	m2 := CloneModule(m)
	call := m2.FuncByName("caller").Entry().First()
	if call.Callee() != Value(m2.FuncByName("callee")) {
		t.Error("cloned call still targets the original module's function")
	}
	if err := VerifyModule(m2); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyCatchesBrokenIR(t *testing.T) {
	build := func() (*Function, *Block) {
		f := NewFunction("f", FuncOf(I32, I32))
		e := f.NewBlockIn("entry")
		return f, e
	}

	t.Run("missing terminator", func(t *testing.T) {
		f, e := build()
		e.Append(NewBinary(OpAdd, "x", f.Param(0), f.Param(0)))
		wantErr(t, f, "terminator")
	})
	t.Run("terminator mid-block", func(t *testing.T) {
		f, e := build()
		e.Append(NewRet(f.Param(0)))
		e.Append(NewRet(f.Param(0)))
		wantErr(t, f, "terminator")
	})
	t.Run("use before def", func(t *testing.T) {
		f, e := build()
		add := NewBinary(OpAdd, "x", f.Param(0), f.Param(0))
		mul := NewBinary(OpMul, "y", add, add)
		e.Append(mul)
		e.Append(add)
		e.Append(NewRet(mul))
		wantErr(t, f, "defined later")
	})
	t.Run("cross-block domination", func(t *testing.T) {
		f, e := build()
		a := f.NewBlockIn("a")
		b := f.NewBlockIn("b")
		j := f.NewBlockIn("j")
		e.Append(NewCondBr(True, a, b))
		add := NewBinary(OpAdd, "x", f.Param(0), f.Param(0))
		a.Append(add)
		a.Append(NewBr(j))
		b.Append(NewBr(j))
		j.Append(NewRet(add))
		wantErr(t, f, "dominated")
	})
	t.Run("phi edge mismatch", func(t *testing.T) {
		f, e := build()
		j := f.NewBlockIn("j")
		e.Append(NewBr(j))
		phi := NewPhi("p", I32)
		phi.AddIncoming(NewConstInt(I32, 1), e)
		phi.AddIncoming(NewConstInt(I32, 2), j) // j is not a pred
		j.Append(phi)
		j.Append(NewRet(phi))
		wantErr(t, f, "phi")
	})
	t.Run("ret type", func(t *testing.T) {
		f, e := build()
		e.Append(NewRet(NewConstInt(I64, 0)))
		wantErr(t, f, "ret")
	})
	t.Run("entry with preds", func(t *testing.T) {
		f, e := build()
		e.Append(NewBr(e))
		wantErr(t, f, "entry")
	})
}

func wantErr(t *testing.T, f *Function, frag string) {
	t.Helper()
	err := VerifyFunction(f)
	if err == nil {
		t.Fatalf("expected verify error containing %q", frag)
	}
	if !strings.Contains(err.Error(), frag) {
		t.Errorf("error %q does not contain %q", err, frag)
	}
}

func TestValuesEqualConstants(t *testing.T) {
	if !ValuesEqual(NewConstInt(I32, 5), NewConstInt(I32, 5)) {
		t.Error("equal int constants not equal")
	}
	if ValuesEqual(NewConstInt(I32, 5), NewConstInt(I64, 5)) {
		t.Error("constants of different types equal")
	}
	if !ValuesEqual(NewUndef(I32), NewUndef(I32)) {
		t.Error("undefs of same type not equal")
	}
	if !ValuesEqual(NewConstFloat(F64, 1.5), NewConstFloat(F64, 1.5)) {
		t.Error("equal float constants not equal")
	}
	a := NewBinary(OpAdd, "", NewConstInt(I32, 1), NewConstInt(I32, 1))
	b := NewBinary(OpAdd, "", NewConstInt(I32, 1), NewConstInt(I32, 1))
	if ValuesEqual(a, b) {
		t.Error("distinct instructions compared equal")
	}
}

func TestSwitchAccessors(t *testing.T) {
	d := NewBlock("d")
	c1 := NewBlock("c1")
	sw := NewSwitch(NewConstInt(I32, 1), d, SwitchCase{Val: NewConstInt(I32, 1), Dest: c1})
	cases := sw.SwitchCases()
	if len(cases) != 1 || cases[0].Dest != c1 || cases[0].Val.V != 1 {
		t.Errorf("SwitchCases = %+v", cases)
	}
	succs := sw.Succs()
	if len(succs) != 2 {
		t.Errorf("switch has %d successors, want 2", len(succs))
	}
}

func TestOpcodeTable(t *testing.T) {
	for op := Opcode(1); op < numOpcodes; op++ {
		if op.String() == "" || op.String() == "invalid" {
			t.Errorf("opcode %d has no name", op)
		}
		if OpcodeByName(op.String()) != op {
			t.Errorf("OpcodeByName(%q) != %v", op.String(), op)
		}
	}
	if !OpAdd.IsCommutative() || OpSub.IsCommutative() {
		t.Error("commutativity table broken")
	}
	if !OpBr.IsTerminator() || OpAdd.IsTerminator() {
		t.Error("terminator table broken")
	}
}

func TestPredSwapped(t *testing.T) {
	pairs := map[CmpPred]CmpPred{
		PredSLT: PredSGT, PredSLE: PredSGE, PredULT: PredUGT,
		PredEQ: PredEQ, PredNE: PredNE, PredOLT: PredOGT,
	}
	for p, want := range pairs {
		if got := p.Swapped(); got != want {
			t.Errorf("%v.Swapped() = %v, want %v", p, got, want)
		}
		if p.Swapped().Swapped() != p {
			t.Errorf("%v swap not involutive", p)
		}
	}
}

// indexesHold reports the first position whose block or instruction
// disagrees with its Index.
func indexesHold(t *testing.T, f *Function, when string) {
	t.Helper()
	for i, b := range f.Blocks {
		if b.Index() != i || b.Parent() != f {
			t.Fatalf("%s: block %q at position %d has index %d", when, b.Name(), i, b.Index())
		}
		for k, in := range b.Instrs() {
			if in.Index() != k {
				t.Fatalf("%s: %v at position %d of %q has index %d", when, in.Op(), k, b.Name(), in.Index())
			}
		}
	}
}

// TestIndexesMaintained drives every operation that rewrites a block
// list or an instruction list and checks Block.Index and
// Instruction.Index after each.
func TestIndexesMaintained(t *testing.T) {
	f := NewFunction("f", FuncOf(I32, I32))
	var bs []*Block
	for _, name := range []string{"entry", "a", "b", "c", "d", "e"} {
		b := f.NewBlockIn(name)
		b.Append(NewRet(f.Param(0)))
		bs = append(bs, b)
	}
	indexesHold(t, f, "after AddBlock")
	if detached := NewBlock("x"); detached.Index() != -1 {
		t.Errorf("detached block has index %d, want -1", detached.Index())
	}

	entry := bs[0]
	x := NewBinary(OpAdd, "x", f.Param(0), NewConstInt(I32, 1))
	y := NewBinary(OpMul, "y", x, x)
	z := NewBinary(OpSub, "z", y, x)
	entry.InsertAtFront(y)
	entry.InsertBefore(x, y)
	entry.InsertAfter(z, y)
	indexesHold(t, f, "after Insert*")
	p, q := NewPhiSized("p", I32, 2), NewPhiSized("q", I32, 2)
	entry.InsertAllAtFront([]*Instruction{p, q})
	indexesHold(t, f, "after InsertAllAtFront")
	if got := entry.Phis(); len(got) != 2 || got[0] != p || got[1] != q || entry.Instrs()[2] != x {
		t.Errorf("InsertAllAtFront did not put p, q ahead of x: %v", entry)
	}
	// A sized phi is an empty phi with room: filling it to size moves
	// nothing, and going past it still works.
	ReserveUses(bs[1], 3)
	for i, b := range bs[1:4] {
		room := cap(p.Operands())
		p.AddIncoming(f.Param(0), b)
		if i < 2 && cap(p.Operands()) != room {
			t.Errorf("incoming %d of a phi sized for 2 reallocated its operands", i)
		}
	}
	if p.NumIncoming() != 3 || len(UsesOf(bs[1])) != 1 {
		t.Errorf("phi has %d incoming, its first block %d uses", p.NumIncoming(), len(UsesOf(bs[1])))
	}
	entry.Erase(p)
	entry.Erase(q)
	entry.Remove(z)
	entry.InsertAtFront(z) // ahead of its operands: fine for indexes
	entry.Erase(z)
	indexesHold(t, f, "after Remove/Erase")
	bs[1].Erase(bs[1].Term())
	bs[1].TakeInstrs(entry)
	entry.Append(NewBr(bs[1]))
	indexesHold(t, f, "after TakeInstrs")

	f.RemoveBlock(bs[2])
	if bs[2].Index() != -1 || bs[2].Parent() != nil {
		t.Errorf("removed block keeps index %d", bs[2].Index())
	}
	indexesHold(t, f, "after RemoveBlock")
	f.EraseBlocks([]*Block{bs[5], bs[3]})
	if len(f.Blocks) != 3 || f.Blocks[2] != bs[4] {
		t.Fatalf("EraseBlocks left %d blocks", len(f.Blocks))
	}
	indexesHold(t, f, "after EraseBlocks")
	f.SetBlockOrder([]*Block{bs[0], bs[4], bs[1]})
	indexesHold(t, f, "after SetBlockOrder")
	if err := VerifyFunction(f); err != nil {
		t.Fatal(err)
	}

	clone, _ := CloneFunction(f, "g")
	indexesHold(t, clone, "CloneFunction result")
	dst := NewFunction("h", f.Sig())
	CloneFunctionInto(dst, f)
	indexesHold(t, dst, "after CloneFunctionInto")
	target := NewFunction("t", f.Sig())
	target.NewBlockIn("old").Append(NewRet(target.Param(0)))
	if err := target.AdoptBody(clone); err != nil {
		t.Fatal(err)
	}
	indexesHold(t, target, "after AdoptBody")
	body := target.DetachBody()
	indexesHold(t, body, "DetachBody result")
	if !target.IsDecl() || HasUses(target.Param(0)) || body.Name() != target.Name() {
		t.Error("DetachBody left the body, or a parameter use, behind")
	}
	if err := VerifyFunction(body); err != nil {
		t.Fatal(err)
	}
	target.Clear()
	if len(target.Blocks) != 0 {
		t.Fatal("Clear left blocks")
	}

	// The verifier is where every other oracle picks the invariant up.
	dst.Blocks[1], dst.Blocks[2] = dst.Blocks[2], dst.Blocks[1]
	if err := VerifyFunction(dst); err == nil || !strings.Contains(err.Error(), "has index") {
		t.Errorf("VerifyFunction accepts a block list permuted behind ir's back: %v", err)
	}
}
