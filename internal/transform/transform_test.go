package transform

import (
	"repro/internal/analysis"
	"testing"

	"repro/internal/ir"
	"repro/internal/irtext"
)

func parseFn(t *testing.T, src, name string) *ir.Function {
	t.Helper()
	m, err := irtext.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	f := m.FuncByName(name)
	if f == nil {
		t.Fatalf("function @%s not found", name)
	}
	return f
}

func verify(t *testing.T, f *ir.Function, stage string) {
	t.Helper()
	if err := ir.VerifyFunction(f); err != nil {
		t.Fatalf("%s: %v\n%s", stage, err, f)
	}
}

func countPhis(f *ir.Function) int {
	n := 0
	f.Instrs(func(in *ir.Instruction) bool {
		if in.Op() == ir.OpPhi {
			n++
		}
		return true
	})
	return n
}

func TestRegToMemRemovesPhisAndGrowsCode(t *testing.T) {
	for _, name := range []string{"F1", "F2"} {
		f := parseFn(t, irtext.Fig2Module, name)
		before := f.NumInstrs()
		RegToMem(f)
		verify(t, f, "after RegToMem")
		if got := countPhis(f); got != 0 {
			t.Errorf("%s: %d phis remain after demotion", name, got)
		}
		after := f.NumInstrs()
		if after <= before {
			t.Errorf("%s: demotion did not grow the function (%d -> %d)", name, before, after)
		}
		// No SSA value other than allocas may cross block boundaries.
		f.Instrs(func(in *ir.Instruction) bool {
			if in.Op() == ir.OpAlloca {
				return true
			}
			for _, u := range ir.UsesOf(in) {
				if u.User.Parent() != in.Parent() {
					t.Errorf("%s: %v escapes its block after demotion", name, in.Op())
				}
			}
			return true
		})
	}
}

func TestMem2RegRoundTrip(t *testing.T) {
	for _, name := range []string{"F1", "F2"} {
		f := parseFn(t, irtext.Fig2Module, name)
		orig := f.NumInstrs()
		origPhis := countPhis(f)
		RegToMem(f)
		verify(t, f, "after RegToMem")
		Mem2Reg(f)
		verify(t, f, "after Mem2Reg")
		Simplify(f)
		verify(t, f, "after Simplify")
		if got := f.NumInstrs(); got != orig {
			t.Errorf("%s: round trip %d -> %d instructions, want %d", name, orig, got, orig)
		}
		if got := countPhis(f); got != origPhis {
			t.Errorf("%s: round trip phis %d -> %d", name, origPhis, got)
		}
	}
}

func TestMem2RegLoadBeforeStoreYieldsUndef(t *testing.T) {
	f := parseFn(t, `
define i32 @f(i1 %c) {
entry:
  %slot = alloca i32
  br i1 %c, label %a, label %b
a:
  store i32 7, i32* %slot
  br label %join
b:
  br label %join
join:
  %v = load i32, i32* %slot
  ret i32 %v
}`, "f")
	Mem2Reg(f)
	verify(t, f, "after Mem2Reg")
	f.Instrs(func(in *ir.Instruction) bool {
		if in.Op() == ir.OpAlloca || in.Op() == ir.OpLoad || in.Op() == ir.OpStore {
			t.Errorf("%v survived promotion", in.Op())
		}
		return true
	})
}

func TestIsPromotableRejectsEscapingAddress(t *testing.T) {
	f := parseFn(t, `
declare void @sink(i32*)
define void @f() {
entry:
  %p = alloca i32
  %q = alloca i32
  store i32 1, i32* %p
  call void @sink(i32* %q)
  ret void
}`, "f")
	var p, q *ir.Instruction
	for _, in := range f.Entry().Instrs() {
		if in.Op() == ir.OpAlloca {
			if p == nil {
				p = in
			} else {
				q = in
			}
		}
	}
	if !IsPromotable(p) {
		t.Error("direct-only alloca should be promotable")
	}
	if IsPromotable(q) {
		t.Error("escaping alloca must not be promotable")
	}
}

// TestMem2RegSelectedAddressBlocksPromotion reproduces the core pathology
// of the paper's Section 3: an alloca whose address flows through a
// select cannot be promoted.
func TestMem2RegSelectedAddressBlocksPromotion(t *testing.T) {
	f := parseFn(t, `
define i32 @f(i1 %fid, i32 %v) {
entry:
  %addr2 = alloca i32
  %addr3 = alloca i32
  %sel = select i1 %fid, i32* %addr2, i32* %addr3
  store i32 %v, i32* %sel
  %r = load i32, i32* %addr2
  ret i32 %r
}`, "f")
	n := Mem2Reg(f)
	verify(t, f, "after Mem2Reg")
	if n != 0 {
		t.Errorf("promoted %d allocas, want 0 (addresses escape through select)", n)
	}
}

func TestSimplifyFoldsConstantBranch(t *testing.T) {
	f := parseFn(t, `
define i32 @f() {
entry:
  br i1 true, label %a, label %b
a:
  ret i32 1
b:
  ret i32 2
}`, "f")
	Simplify(f)
	verify(t, f, "after Simplify")
	if len(f.Blocks) != 1 {
		t.Fatalf("got %d blocks, want 1\n%s", len(f.Blocks), f)
	}
	ret := f.Entry().Term()
	if ret.Op() != ir.OpRet {
		t.Fatalf("entry does not end in ret")
	}
	if c, ok := ret.Operand(0).(*ir.ConstInt); !ok || c.V != 1 {
		t.Errorf("folded to %v, want 1", ret.Operand(0))
	}
}

func TestSimplifyMergesChains(t *testing.T) {
	f := parseFn(t, `
define i32 @f(i32 %x) {
e0:
  br label %e1
e1:
  %a = add i32 %x, 1
  br label %e2
e2:
  %b = mul i32 %a, 2
  br label %e3
e3:
  ret i32 %b
}`, "f")
	Simplify(f)
	verify(t, f, "after Simplify")
	if len(f.Blocks) != 1 {
		t.Errorf("got %d blocks, want 1", len(f.Blocks))
	}
}

// TestMergeStraightLineBlocksKeepsIndexes: absorbing a successor moves
// its instructions and erases a block out of the middle of the list;
// block and instruction indexes must follow.
func TestMergeStraightLineBlocksKeepsIndexes(t *testing.T) {
	f := parseFn(t, `
define i32 @f(i1 %c, i32 %x) {
entry:
  br i1 %c, label %l1, label %r
l1:
  %a = add i32 %x, 1
  br label %l2
r:
  br label %join
l2:
  %b = mul i32 %a, 2
  br label %join
join:
  %p = phi i32 [ %b, %l2 ], [ %x, %r ]
  ret i32 %p
}`, "f")
	if n := MergeStraightLineBlocks(f); n != 1 {
		t.Fatalf("merged %d blocks, want 1", n)
	}
	for i, b := range f.Blocks {
		if b.Index() != i {
			t.Errorf("block %s at position %d has index %d", b.Name(), i, b.Index())
		}
		for k, in := range b.Instrs() {
			if in.Index() != k {
				t.Errorf("%v at position %d of %s has index %d", in.Op(), k, b.Name(), in.Index())
			}
		}
	}
	verify(t, f, "after MergeStraightLineBlocks")
}

func TestSimplifyXorIdentity(t *testing.T) {
	f := parseFn(t, `
define i1 @f(i1 %c) {
entry:
  %x = xor i1 %c, false
  ret i1 %x
}`, "f")
	Simplify(f)
	ret := f.Entry().Term()
	if ret.Operand(0) != f.Param(0) {
		t.Errorf("xor c, false did not fold to c")
	}
}

func TestSimplifySelectSameArms(t *testing.T) {
	f := parseFn(t, `
define i32 @f(i1 %c, i32 %v) {
entry:
  %s = select i1 %c, i32 %v, i32 %v
  ret i32 %s
}`, "f")
	Simplify(f)
	if f.Entry().Term().Operand(0) != f.Param(1) {
		t.Errorf("select c, v, v did not fold to v")
	}
}

func TestRemoveUnreachable(t *testing.T) {
	f := parseFn(t, `
define i32 @f(i32 %x) {
entry:
  br label %live
dead:
  %d = add i32 %x, 1
  br label %live
live:
  ret i32 %x
}`, "f")
	// Phi-less target with a dead predecessor edge.
	n := RemoveUnreachable(f, analysis.NewDomTree(f))
	verify(t, f, "after RemoveUnreachable")
	if n != 1 || len(f.Blocks) != 2 {
		t.Errorf("removed %d blocks (now %d), want 1 (2 left)", n, len(f.Blocks))
	}
}

func TestDCE(t *testing.T) {
	f := parseFn(t, `
define i32 @f(i32 %x) {
entry:
  %dead1 = add i32 %x, 1
  %dead2 = mul i32 %dead1, 2
  %live = sub i32 %x, 3
  ret i32 %live
}`, "f")
	n := DCE(f)
	if n != 2 {
		t.Errorf("DCE removed %d, want 2", n)
	}
	if f.Entry().Len() != 2 {
		t.Errorf("%d instructions remain, want 2", f.Entry().Len())
	}
}

func TestRegToMemWithInvoke(t *testing.T) {
	f := parseFn(t, `
declare i32 @may_throw(i32)
define i32 @f(i32 %n) {
entry:
  %iv = invoke i32 @may_throw(i32 %n) to label %ok unwind label %pad
ok:
  %r = add i32 %iv, 1
  br label %done
pad:
  %lp = landingpad cleanup
  br label %done
done:
  %out = phi i32 [ %r, %ok ], [ -1, %pad ]
  ret i32 %out
}`, "f")
	RegToMem(f)
	verify(t, f, "after RegToMem")
	if got := countPhis(f); got != 0 {
		t.Errorf("%d phis remain", got)
	}
	Mem2Reg(f)
	verify(t, f, "after Mem2Reg")
	Simplify(f)
	verify(t, f, "after Simplify")
}

func TestRemoveDuplicatePhis(t *testing.T) {
	f := parseFn(t, `
define i32 @f(i1 %c) {
entry:
  br i1 %c, label %a, label %b
a:
  br label %join
b:
  br label %join
join:
  %p1 = phi i32 [ 1, %a ], [ 2, %b ]
  %p2 = phi i32 [ 1, %a ], [ 2, %b ]
  %s = add i32 %p1, %p2
  ret i32 %s
}`, "f")
	n := RemoveDuplicatePhis(f)
	verify(t, f, "after RemoveDuplicatePhis")
	if n != 1 {
		t.Errorf("removed %d duplicate phis, want 1", n)
	}
}
