package ir

import (
	"testing"
	"unsafe"
)

// TestInstructionSize pins the instruction's footprint: every body is
// mostly instructions, so a field that spills into the next size class
// shows up on every workload's peak heap.
func TestInstructionSize(t *testing.T) {
	if n := unsafe.Sizeof(Instruction{}); n != 96 {
		t.Errorf("Instruction is %d bytes, want 96", n)
	}
}

// TestStampsMove checks each rule of stamp.go on a small diamond: what
// changed moves its block's stamp (and the phi stamp and CFG stamp where
// the rule says), and what did not change does not.
func TestStampsMove(t *testing.T) {
	f := NewFunction("f", FuncOf(I32, I1, I32))
	entry, a, b, join := f.NewBlockIn("entry"), f.NewBlockIn("a"), f.NewBlockIn("b"), f.NewBlockIn("join")
	entry.Append(NewCondBr(f.Param(0), a, b))
	x := a.Append(NewBinary(OpAdd, "x", f.Param(1), NewConstInt(I32, 1)))
	a.Append(NewBr(join))
	b.Append(NewBr(join))
	phi := join.Append(NewPhi("p", I32))
	phi.AddIncoming(x, a)
	phi.AddIncoming(f.Param(1), b)
	ret := join.Append(NewRet(phi))

	type snap struct{ stamps, phis []uint32 }
	take := func() snap {
		var s snap
		for _, blk := range f.Blocks {
			s.stamps = append(s.stamps, blk.Stamp())
			s.phis = append(s.phis, blk.PhiStamp())
		}
		return s
	}
	check := func(what string, edit func(), moved, phiMoved []*Block, cfg bool) {
		t.Helper()
		before, cfgBefore := take(), f.CFGStamp()
		edit()
		after := take()
		for i, blk := range f.Blocks {
			wantMoved, wantPhi := false, false
			for _, m := range moved {
				wantMoved = wantMoved || m == blk
			}
			for _, m := range phiMoved {
				wantPhi = wantPhi || m == blk
			}
			if got := after.stamps[i] != before.stamps[i]; got != wantMoved {
				t.Errorf("%s: %%%s stamp moved %v, want %v", what, blk.Name(), got, wantMoved)
			}
			if got := after.phis[i] != before.phis[i]; got != wantPhi {
				t.Errorf("%s: %%%s phi stamp moved %v, want %v", what, blk.Name(), got, wantPhi)
			}
		}
		if got := f.CFGStamp() != cfgBefore; got != cfg {
			t.Errorf("%s: CFG stamp moved %v, want %v", what, got, cfg)
		}
	}

	// An operand set: the user's block, and the blocks defining the old
	// and new values (their use lists).
	y := a.InsertBefore(NewBinary(OpMul, "y", f.Param(1), f.Param(1)), a.Term())
	check("set operand", func() { ret.SetOperand(0, y) }, []*Block{join, a}, nil, false)
	// A phi incoming: the phi stamp too.
	check("set incoming", func() { phi.SetIncomingValue(1, NewConstInt(I32, 7)) }, []*Block{join}, []*Block{join}, false)
	// A retargeted terminator: its block, both targets, the CFG.
	check("retarget", func() { b.Term().SetOperand(0, a) }, []*Block{b, join, a}, nil, true)
	check("retarget back", func() { b.Term().SetOperand(0, join) }, []*Block{b, join, a}, nil, true)
	// Moving an instruction: both blocks, and the blocks of its users
	// (a phi's phi stamp among them).
	check("move", func() {
		a.Remove(x)
		b.InsertBefore(x, b.Term())
	}, []*Block{a, b, join}, []*Block{join}, false)
	// A predicate is an operand like any other.
	c := entry.InsertBefore(NewICmp("c", PredEQ, f.Param(1), f.Param(1)), entry.Term())
	check("set predicate", func() { c.SetPred(PredNE) }, []*Block{entry}, nil, false)
	check("same predicate", func() { c.SetPred(PredNE) }, nil, nil, false)
	// Renaming changes nothing a pass reads.
	check("rename", func() { a.SetName("a2"); y.SetName("y2") }, nil, nil, false)

	// Marks are the owner's; a block moving to another function drops
	// them.
	a.SetMark(3, f.Edits())
	if a.Mark(3) != f.Edits() {
		t.Fatal("mark not kept")
	}
	g := NewFunction("g", FuncOf(Void))
	blk := g.NewBlockIn("x")
	blk.SetMark(3, 99)
	g.RemoveBlock(blk)
	f.AddBlock(blk)
	if blk.Mark(3) != 0 || blk.Stamp() == 0 {
		t.Errorf("a block joining f kept mark %d, stamp %d", blk.Mark(3), blk.Stamp())
	}

	// Moving the body: the counter continues, on both sides.
	edits := f.Edits()
	body := f.DetachBody()
	if body.Edits() <= edits || f.Edits() <= edits {
		t.Errorf("DetachBody: counters %d and %d, not past %d", body.Edits(), f.Edits(), edits)
	}
	if a.Mark(3) > body.Edits() {
		t.Errorf("a moved block's mark %d is past its new function's counter %d", a.Mark(3), body.Edits())
	}
}
