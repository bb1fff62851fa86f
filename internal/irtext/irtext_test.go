package irtext

import (
	"strings"
	"testing"

	"repro/internal/ir"
)

func TestParseFig2Module(t *testing.T) {
	m, err := Parse(Fig2Module)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if err := ir.VerifyModule(m); err != nil {
		t.Fatalf("verify: %v", err)
	}
	f1 := m.FuncByName("F1")
	if f1 == nil {
		t.Fatal("F1 not found")
	}
	if got, want := len(f1.Blocks), 4; got != want {
		t.Errorf("F1 has %d blocks, want %d", got, want)
	}
	if got, want := f1.NumInstrs(), 10; got != want {
		t.Errorf("F1 has %d instructions, want %d", got, want)
	}
	f2 := m.FuncByName("F2")
	if got, want := f2.NumInstrs(), 9; got != want {
		t.Errorf("F2 has %d instructions, want %d", got, want)
	}
	// F2's l2 has a phi with an incoming value defined later (loop).
	phi := f2.Blocks[1].First()
	if phi.Op() != ir.OpPhi {
		t.Fatalf("F2 block l2 does not start with phi")
	}
	if phi.NumIncoming() != 2 {
		t.Errorf("phi has %d incoming, want 2", phi.NumIncoming())
	}
}

func TestRoundTrip(t *testing.T) {
	m1, err := Parse(Fig2Module)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	text1 := m1.String()
	m2, err := Parse(text1)
	if err != nil {
		t.Fatalf("reparse printed module: %v\n%s", err, text1)
	}
	text2 := m2.String()
	if text1 != text2 {
		t.Errorf("round trip not stable:\n--- first ---\n%s\n--- second ---\n%s", text1, text2)
	}
	if err := ir.VerifyModule(m2); err != nil {
		t.Fatalf("verify reparsed: %v", err)
	}
}

func TestParseAllInstructionForms(t *testing.T) {
	src := `
@g = global i32 7
@buf = external global [4 x i32]

declare void @personality()
declare i32 @callee(i32, i32)

define i32 @all(i32 %a, i32 %b, double %d, i32* %p) {
entry:
  %add = add i32 %a, %b
  %sub = sub i32 %a, 1
  %mul = mul i32 %add, %sub
  %sd = sdiv i32 %mul, 3
  %ud = udiv i32 %mul, 3
  %sr = srem i32 %mul, 5
  %ur = urem i32 %mul, 5
  %sh = shl i32 %sr, 1
  %lsh = lshr i32 %sh, 1
  %ash = ashr i32 %sh, 1
  %an = and i32 %lsh, %ash
  %or = or i32 %an, 15
  %xo = xor i32 %or, -1
  %fa = fadd double %d, 1.5
  %fs = fsub double %fa, 0.5
  %fm = fmul double %fs, 2.0
  %fd = fdiv double %fm, 4.0
  %c1 = icmp slt i32 %xo, 100
  %c2 = fcmp olt double %fd, 10.0
  %c = and i1 %c1, %c2
  %slot = alloca i32
  store i32 %xo, i32* %slot
  %ld = load i32, i32* %slot
  %gep = getelementptr [4 x i32], [4 x i32]* @buf, i64 0, i64 1
  store i32 %ld, i32* %gep
  %tr = trunc i32 %ld to i8
  %zx = zext i8 %tr to i64
  %sx = sext i8 %tr to i64
  %fi = fptosi double %fd to i32
  %if = sitofp i32 %fi to double
  %pi = ptrtoint i32* %p to i64
  %ip = inttoptr i64 %pi to i32*
  %bc = bitcast i32* %ip to i8*
  %sel = select i1 %c, i32 %fi, i32 0
  switch i32 %sel, label %sw0 [ i32 1, label %sw1 i32 2, label %sw2 ]
sw0:
  br label %join
sw1:
  br label %join
sw2:
  %iv = invoke i32 @callee(i32 1, i32 2) to label %join unwind label %pad
pad:
  %lp = landingpad cleanup
  resume {i8*, i32} %lp
join:
  %phi = phi i32 [ 0, %sw0 ], [ 1, %sw1 ], [ %iv, %sw2 ]
  %call = call i32 @callee(i32 %phi, i32 %sel)
  %unused = sitofp i32 %call to double
  ret i32 %call
}

define void @voidfn() {
entry:
  call void @personality()
  ret void
}

define i32 @loopy(i32 %n) {
entry:
  br label %head
head:
  %i = phi i32 [ 0, %entry ], [ %inc, %body ]
  %cond = icmp slt i32 %i, %n
  br i1 %cond, label %body, label %exit
body:
  %inc = add i32 %i, 1
  br label %head
exit:
  ret i32 %i
}

define void @dead() {
entry:
  br label %exit
exit:
  ret void
}
`
	m, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if err := ir.VerifyModule(m); err != nil {
		t.Fatalf("verify: %v", err)
	}
	// Round trip again.
	text := m.String()
	m2, err := Parse(text)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, text)
	}
	if err := ir.VerifyModule(m2); err != nil {
		t.Fatalf("verify reparsed: %v", err)
	}
	if m.NumInstrs() != m2.NumInstrs() {
		t.Errorf("instruction count changed across round trip: %d vs %d", m.NumInstrs(), m2.NumInstrs())
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"unknown opcode", "define void @f() {\ne:\n frobnicate\n}", "unknown opcode"},
		{"undefined local", "define i32 @f() {\ne:\n ret i32 %x\n}", "undefined local"},
		{"undefined block", "define void @f() {\ne:\n br label %nope\n}", "undefined block"},
		{"type mismatch", "define i32 @f(i64 %a) {\ne:\n %x = add i32 %a, 1\n ret i32 %x\n}", "used with type"},
		{"dup block", "define void @f() {\ne:\n br label %e\ne:\n ret void\n}", "duplicate block"},
		{"dup local", "define i32 @f() {\ne:\n %x = add i32 1, 2\n %x = add i32 3, 4\n ret i32 %x\n}", "duplicate definition"},
		{"bad char", "define void @f() { $ }", "unexpected character"},
		{"named void", "define void @f() {\ne:\n %x = store i32 1, i32* null\n ret void\n}", "void instruction"},
		{"sig conflict", "declare void @g()\ndeclare i32 @g()", "different signature"},
		// The verifier's type rules (ir.VerifyModule), each refused at parse.
		{"select arms differ", "define i32 @f(i1 %c) {\ne:\n %x = select i1 %c, i32 1, i64 2\n ret i32 %x\n}", "select arms"},
		{"select cond", "define i32 @f(i32 %c) {\ne:\n %x = select i32 %c, i32 1, i32 2\n ret i32 %x\n}", "select condition"},
		{"branch cond", "define void @f(i32 %c) {\ne:\n br i32 %c, label %e, label %e\n}", "branch condition"},
		{"store pointee", "define void @f(i64* %p) {\ne:\n store i32 1, i64* %p\n ret void\n}", "store pointer/value"},
		{"ret type", "define i32 @f(i64 %a) {\ne:\n ret i64 %a\n}", "ret i64"},
		{"ret void", "define i32 @f() {\ne:\n ret void\n}", "ret void"},
		{"call arity", "declare void @g(i32)\ndefine void @f() {\ne:\n call void @g(i32 1, i32 2)\n ret void\n}", "passes 2 arguments"},
		{"call too few to variadic", "declare void @g(i32, ...)\ndefine void @f() {\ne:\n call void @g()\n ret void\n}", "passes 0 arguments"},
		{"invoke arity", "declare void @g(i32)\ndefine void @f() {\ne:\n invoke void @g() to label %n unwind label %n\nn:\n ret void\n}", "passes 0 arguments"},
		{"call arg type", "declare void @g(i32)\ndefine void @f() {\ne:\n call void @g(i64 1)\n ret void\n}", "argument 0 of type i64"},
		{"global type", "@g = global i32 7\ndefine i32 @f(i32 %x) {\ne:\n %y = add i32 %x, @g\n ret i32 %y\n}", "@g used with type i32"},
		{"call of a global", "@g = global i32 7\ndefine void @f() {\ne:\n call void @g()\n ret void\n}", "call of @g, a global variable"},
		{"invoke of a global", "@g = global i32 7\ndefine void @f() {\ne:\n invoke void @g() to label %n unwind label %n\nn:\n ret void\n}", "invoke of @g, a global variable"},
		{"function named like a global", "@g = global i32 7\ndeclare void @g()", "@g is already a global variable"},
		{"global named like a function", "declare void @g()\n@g = global i32 7", "@g is already a function"},
		{"call vs synthesized decl", "define void @f() {\ne:\n call void @h(i32 1)\n call void @h(i64 1)\n ret void\n}", "argument 0 of type i64"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(tc.src)
			if err == nil {
				t.Fatalf("expected error containing %q, got nil", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

func TestImplicitDeclarations(t *testing.T) {
	m, err := Parse(Fig2F1)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	for _, name := range []string{"start", "body", "other", "end"} {
		f := m.FuncByName(name)
		if f == nil {
			t.Fatalf("implicit declaration for @%s missing", name)
		}
		if !f.IsDecl() {
			t.Errorf("@%s should be a declaration", name)
		}
		if got := len(f.Sig().Params); got != 1 {
			t.Errorf("@%s has %d params, want 1", name, got)
		}
	}
}
