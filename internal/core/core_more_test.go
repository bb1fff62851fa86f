package core

import (
	"testing"

	"repro/internal/align"
	"repro/internal/ir"
	"repro/internal/irtext"
	"repro/internal/transform"
)

func TestMergeSwitchFunctions(t *testing.T) {
	src := `
declare i32 @h(i32)
define i32 @a(i32 %x) {
e:
  switch i32 %x, label %d [ i32 0, label %c0 i32 1, label %c1 ]
c0:
  %r0 = call i32 @h(i32 1)
  ret i32 %r0
c1:
  %r1 = call i32 @h(i32 2)
  ret i32 %r1
d:
  ret i32 -1
}
define i32 @b(i32 %x) {
e:
  switch i32 %x, label %d [ i32 0, label %c0 i32 1, label %c1 ]
c0:
  %r0 = call i32 @h(i32 3)
  ret i32 %r0
c1:
  %r1 = call i32 @h(i32 4)
  ret i32 %r1
d:
  ret i32 -2
}`
	m := irtext.MustParse(src)
	merged, stats, err := Merge(m, m.FuncByName("a"), m.FuncByName("b"), "ab", DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := ir.VerifyFunction(merged); err != nil {
		t.Fatalf("verify: %v\n%s", err, merged)
	}
	transform.Simplify(merged)
	if err := ir.VerifyFunction(merged); err != nil {
		t.Fatalf("verify simplified: %v\n%s", err, merged)
	}
	// The switches must have merged (identical case values).
	switches := 0
	merged.Instrs(func(in *ir.Instruction) bool {
		if in.Op() == ir.OpSwitch {
			switches++
		}
		return true
	})
	if switches != 1 {
		t.Errorf("%d switches in merged function, want 1", switches)
	}
	if stats.InstrMatches < 3 {
		t.Errorf("InstrMatches = %d", stats.InstrMatches)
	}
}

func TestMergeGEPAndMemory(t *testing.T) {
	src := `
@table = global [8 x i32] zeroinitializer
define i32 @a(i32 %i) {
e:
  %ix = sext i32 %i to i64
  %p = getelementptr [8 x i32], [8 x i32]* @table, i64 0, i64 %ix
  %v = load i32, i32* %p
  %w = add i32 %v, 1
  store i32 %w, i32* %p
  ret i32 %w
}
define i32 @b(i32 %i) {
e:
  %ix = sext i32 %i to i64
  %p = getelementptr [8 x i32], [8 x i32]* @table, i64 0, i64 %ix
  %v = load i32, i32* %p
  %w = add i32 %v, 2
  store i32 %w, i32* %p
  ret i32 %w
}`
	m := irtext.MustParse(src)
	merged, stats, err := Merge(m, m.FuncByName("a"), m.FuncByName("b"), "ab", DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	transform.Simplify(merged)
	if err := ir.VerifyFunction(merged); err != nil {
		t.Fatalf("verify: %v\n%s", err, merged)
	}
	// Everything except the +1/+2 constant merges: exactly one select.
	selects := 0
	merged.Instrs(func(in *ir.Instruction) bool {
		if in.Op() == ir.OpSelect {
			selects++
		}
		return true
	})
	if selects != 1 {
		t.Errorf("%d selects, want exactly 1 (the differing constant)\n%s", selects, merged)
	}
	if stats.InstrMatches < 5 {
		t.Errorf("InstrMatches = %d, want >= 5", stats.InstrMatches)
	}
}

func TestMergeVoidFunctions(t *testing.T) {
	src := `
declare void @sink(i32)
define void @a(i32 %x) {
e:
  call void @sink(i32 %x)
  ret void
}
define void @b(i32 %x) {
e:
  %y = add i32 %x, 1
  call void @sink(i32 %y)
  ret void
}`
	m := irtext.MustParse(src)
	merged, _, err := Merge(m, m.FuncByName("a"), m.FuncByName("b"), "ab", DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	transform.Simplify(merged)
	if err := ir.VerifyFunction(merged); err != nil {
		t.Fatalf("verify: %v\n%s", err, merged)
	}
	if !ir.IsVoid(merged.Sig().Ret) {
		t.Error("merged function must return void")
	}
}

func TestMergeDeterministic(t *testing.T) {
	build := func() string {
		m := irtext.MustParse(irtext.Fig2Module)
		merged, _, err := Merge(m, m.FuncByName("F1"), m.FuncByName("F2"), "ab", DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		transform.Simplify(merged)
		return merged.String()
	}
	if build() != build() {
		t.Error("merging is not deterministic")
	}
}

func TestMergeAlignedAgreesWithMerge(t *testing.T) {
	m1 := irtext.MustParse(irtext.Fig2Module)
	res, err := align.AlignFunctions(m1.FuncByName("F1"), m1.FuncByName("F2"), align.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	a, _, err := MergeAlignedCtx(t.Context(), m1, m1.FuncByName("F1"), m1.FuncByName("F2"), "ab", res, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	m2 := irtext.MustParse(irtext.Fig2Module)
	b, _, err := Merge(m2, m2.FuncByName("F1"), m2.FuncByName("F2"), "ab", DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("MergeAlignedCtx and Merge disagree")
	}
}

// TestLandingBlockPlacement: every invoke's unwind destination in merged
// code starts with a landingpad (the Figure 12 invariant), including
// when unwind targets differ and need label selection.
func TestLandingBlockPlacement(t *testing.T) {
	src := `
declare i32 @risky(i32)
declare void @log1()
declare void @log2()
define i32 @a(i32 %n) {
e:
  %v = invoke i32 @risky(i32 %n) to label %ok unwind label %p1
ok:
  ret i32 %v
p1:
  %lp = landingpad cleanup
  call void @log1()
  resume {i8*, i32} %lp
}
define i32 @b(i32 %n) {
e:
  %v = invoke i32 @risky(i32 %n) to label %ok unwind label %p2
ok:
  ret i32 %v
p2:
  %lp = landingpad cleanup
  call void @log2()
  resume {i8*, i32} %lp
}`
	m := irtext.MustParse(src)
	merged, _, err := Merge(m, m.FuncByName("a"), m.FuncByName("b"), "ab", DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := ir.VerifyFunction(merged); err != nil {
		t.Fatalf("verify: %v\n%s", err, merged)
	}
	transform.Simplify(merged)
	if err := ir.VerifyFunction(merged); err != nil {
		t.Fatalf("verify simplified: %v\n%s", err, merged)
	}
	merged.Instrs(func(in *ir.Instruction) bool {
		if in.Op() == ir.OpInvoke {
			first := in.UnwindDest().FirstNonPhi()
			if first == nil || first.Op() != ir.OpLandingPad {
				t.Errorf("invoke unwind dest %%%s lacks a landingpad", in.UnwindDest().Name())
			}
		}
		return true
	})
}

func TestStatsAccounting(t *testing.T) {
	m := irtext.MustParse(irtext.Fig2Module)
	_, stats, err := Merge(m, m.FuncByName("F1"), m.FuncByName("F2"), "ab", DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if stats.MatrixBytes <= 0 {
		t.Error("MatrixBytes not recorded")
	}
	if stats.Matches <= 0 || stats.InstrMatches <= 0 {
		t.Error("match counts not recorded")
	}
	if stats.Matches < stats.InstrMatches {
		t.Error("Matches must include label matches")
	}
}
