package interp

import (
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/irtext"
)

func fn(t *testing.T, src, name string) *ir.Function {
	t.Helper()
	m, err := irtext.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	f := m.FuncByName(name)
	if f == nil {
		t.Fatalf("@%s not found", name)
	}
	return f
}

func TestLoopComputesSum(t *testing.T) {
	f := fn(t, `
define i32 @sum(i32 %n) {
entry:
  br label %head
head:
  %i = phi i32 [ 0, %entry ], [ %i2, %body ]
  %acc = phi i32 [ 0, %entry ], [ %acc2, %body ]
  %c = icmp slt i32 %i, %n
  br i1 %c, label %body, label %exit
body:
  %acc2 = add i32 %acc, %i
  %i2 = add i32 %i, 1
  br label %head
exit:
  ret i32 %acc
}`, "sum")
	env := NewEnv()
	got, err := env.Call(f, []Value{IntV(10)})
	if err != nil {
		t.Fatal(err)
	}
	if got.Int != 45 {
		t.Errorf("sum(10) = %v, want 45", got)
	}
}

func TestMemoryOps(t *testing.T) {
	f := fn(t, `
define i32 @mem(i32 %x) {
entry:
  %buf = alloca [4 x i32]
  %p0 = getelementptr [4 x i32], [4 x i32]* %buf, i64 0, i64 0
  %p2 = getelementptr [4 x i32], [4 x i32]* %buf, i64 0, i64 2
  store i32 %x, i32* %p0
  store i32 7, i32* %p2
  %a = load i32, i32* %p0
  %b = load i32, i32* %p2
  %s = add i32 %a, %b
  ret i32 %s
}`, "mem")
	env := NewEnv()
	got, err := env.Call(f, []Value{IntV(5)})
	if err != nil {
		t.Fatal(err)
	}
	if got.Int != 12 {
		t.Errorf("mem(5) = %v, want 12", got)
	}
}

func TestExternalTraceAndDeterminism(t *testing.T) {
	f := fn(t, `
declare i32 @ext(i32)
define i32 @g(i32 %x) {
entry:
  %a = call i32 @ext(i32 %x)
  %b = call i32 @ext(i32 %a)
  %s = add i32 %a, %b
  ret i32 %s
}`, "g")
	o1 := Run(nil, f, []Value{IntV(3)})
	o2 := Run(nil, f, []Value{IntV(3)})
	if same, why := SameBehavior(o1, o2); !same {
		t.Fatalf("nondeterministic execution: %s", why)
	}
	if len(o1.Trace) != 2 {
		t.Errorf("trace has %d events, want 2", len(o1.Trace))
	}
	if o1.Trace[0].Callee != "ext" {
		t.Errorf("trace[0] = %v", o1.Trace[0])
	}
}

func TestExceptionUnwindsToLandingPad(t *testing.T) {
	f := fn(t, `
declare i32 @risky(i32)
define i32 @h(i32 %n) {
entry:
  %v = invoke i32 @risky(i32 %n) to label %ok unwind label %pad
ok:
  ret i32 %v
pad:
  %lp = landingpad cleanup
  ret i32 -1
}`, "h")
	env := NewEnv()
	env.Throws["risky"] = func(args []Value) bool { return args[0].Int < 0 }
	got, err := env.Call(f, []Value{IntV(-5)})
	if err != nil {
		t.Fatal(err)
	}
	if got.Int != -1 {
		t.Errorf("h(-5) = %v, want -1 via landing pad", got)
	}
	got2, err := env.Call(f, []Value{IntV(5)})
	if err != nil {
		t.Fatal(err)
	}
	if got2.Int == -1 {
		t.Error("h(5) took the unwind path")
	}
}

func TestResumePropagates(t *testing.T) {
	f := fn(t, `
declare i32 @risky(i32)
define i32 @inner(i32 %n) {
entry:
  %v = invoke i32 @risky(i32 %n) to label %ok unwind label %pad
ok:
  ret i32 %v
pad:
  %lp = landingpad cleanup
  resume {i8*, i32} %lp
}
define i32 @outer(i32 %n) {
entry:
  %v = invoke i32 @inner(i32 %n) to label %ok unwind label %pad
ok:
  ret i32 %v
pad:
  %lp = landingpad cleanup
  ret i32 -99
}`, "outer")
	env := NewEnv()
	env.Throws["risky"] = func(args []Value) bool { return args[0].Int == 0 }
	got, err := env.Call(f, []Value{IntV(0)})
	if err != nil {
		t.Fatal(err)
	}
	if got.Int != -99 {
		t.Errorf("outer(0) = %v, want -99 (resumed exception caught by outer)", got)
	}
}

func TestStepLimit(t *testing.T) {
	f := fn(t, `
define void @spin() {
entry:
  br label %entry2
entry2:
  br label %entry2
}`, "spin")
	env := NewEnv()
	env.MaxSteps = 1000
	_, err := env.Call(f, nil)
	if err == nil || !strings.Contains(err.Error(), "step limit") {
		t.Errorf("got %v, want step limit error", err)
	}
}

func TestBranchOnUndefFaults(t *testing.T) {
	f := fn(t, `
define i32 @bad(i1 %c) {
entry:
  %u = alloca i32
  %v = load i32, i32* %u
  %cmp = icmp eq i32 %v, 0
  br i1 %cmp, label %a, label %b
a:
  ret i32 1
b:
  ret i32 2
}`, "bad")
	env := NewEnv()
	_, err := env.Call(f, []Value{BoolV(true)})
	if err == nil || !strings.Contains(err.Error(), "undef") {
		t.Errorf("got %v, want undef-observed error", err)
	}
}

// TestUndefObservationsAgree: the same execution up to an undef
// observation, in two functions of different names, is the same
// behaviour though the error texts name the functions; the external
// calls made before it still count.
func TestUndefObservationsAgree(t *testing.T) {
	const src = `
declare i32 @ext(i32)
define i32 @NAME(i32 %x) {
entry:
  %e = call i32 @ext(i32 %x)
  %u = alloca i32
  %v = load i32, i32* %u
  %cmp = icmp eq i32 %v, 0
  br i1 %cmp, label %a, label %b
a:
  ret i32 1
b:
  ret i32 2
}`
	f := fn(t, strings.ReplaceAll(src, "NAME", "f"), "f")
	g := fn(t, strings.ReplaceAll(src, "NAME", "g"), "g")
	a, b := Run(nil, f, []Value{IntV(3)}), Run(nil, g, []Value{IntV(3)})
	if a.Err == b.Err || !strings.Contains(a.Err, "@f") {
		t.Fatalf("errors %q and %q: want undef observations naming their functions", a.Err, b.Err)
	}
	if same, why := SameBehavior(a, b); !same {
		t.Errorf("same undefined execution under two names differs: %s", why)
	}
	c := Run(nil, g, []Value{IntV(4)})
	if same, _ := SameBehavior(a, c); same {
		t.Error("undef observations after different external calls agree")
	}
	ret := Run(nil, fn(t, `
declare i32 @ext(i32)
define i32 @h(i32 %x) {
entry:
  %e = call i32 @ext(i32 %x)
  ret i32 %e
}`, "h"), []Value{IntV(3)})
	if same, _ := SameBehavior(a, ret); same {
		t.Error("an undef observation agrees with a normal return")
	}
}

func TestSwitchDispatch(t *testing.T) {
	f := fn(t, `
define i32 @sw(i32 %x) {
entry:
  switch i32 %x, label %d [ i32 1, label %a i32 2, label %b ]
a:
  ret i32 100
b:
  ret i32 200
d:
  ret i32 -1
}`, "sw")
	env := NewEnv()
	for _, tc := range []struct{ in, want int64 }{{1, 100}, {2, 200}, {9, -1}} {
		got, err := env.Call(f, []Value{IntV(tc.in)})
		if err != nil {
			t.Fatal(err)
		}
		if got.Int != tc.want {
			t.Errorf("sw(%d) = %v, want %d", tc.in, got, tc.want)
		}
	}
}

func TestGlobalAccess(t *testing.T) {
	m := irtext.MustParse(`
@counter = global i32 40
define i32 @bump() {
entry:
  %v = load i32, i32* @counter
  %v2 = add i32 %v, 2
  store i32 %v2, i32* @counter
  ret i32 %v2
}`)
	env := NewEnv()
	got, err := env.Call(m.FuncByName("bump"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Int != 42 {
		t.Errorf("bump() = %v, want 42", got)
	}
	// Same env: global persists.
	got2, _ := env.Call(m.FuncByName("bump"), nil)
	if got2.Int != 44 {
		t.Errorf("second bump() = %v, want 44", got2)
	}
}

func TestFig2FunctionsExecute(t *testing.T) {
	m := irtext.MustParse(irtext.Fig2Module)
	env := NewEnv()
	// F2 loops while body's result is nonzero; the default external for
	// body is a pure function of its argument, so force convergence.
	env.Externals["body"] = func(args []Value) (Value, error) {
		return IntV(args[0].Int / 2), nil
	}
	for _, name := range []string{"F1", "F2"} {
		out := Run(env, m.FuncByName(name), []Value{IntV(7)})
		if out.Err != "" {
			t.Errorf("%s: %s", name, out.Err)
		}
		if len(out.Trace) == 0 {
			t.Errorf("%s produced no trace", name)
		}
	}
}
