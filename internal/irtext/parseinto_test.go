package irtext

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"repro/internal/ir"
)

const spliceBase = `
define i32 @inc(i32 %x) {
entry:
  %r = add i32 %x, 1
  ret i32 %r
}

define i32 @twice(i32 %x) {
entry:
  %a = call i32 @inc(i32 %x)
  %b = call i32 @inc(i32 %a)
  ret i32 %b
}
`

func TestParseIntoAddsFunction(t *testing.T) {
	m := MustParse(spliceBase)
	names, err := ParseInto(m, `
define i32 @thrice(i32 %x) {
entry:
  %a = call i32 @twice(i32 %x)
  %b = call i32 @inc(i32 %a)
  ret i32 %b
}
`)
	if err != nil {
		t.Fatalf("ParseInto: %v", err)
	}
	if len(names) != 1 || names[0] != "thrice" {
		t.Fatalf("names = %v, want [thrice]", names)
	}
	f := m.FuncByName("thrice")
	if f == nil || f.IsDecl() {
		t.Fatalf("@thrice not defined after splice")
	}
	// The module must still round-trip.
	if _, err := Parse(m.String()); err != nil {
		t.Fatalf("reparse after splice: %v", err)
	}
}

func TestParseIntoRedefinePreservesIdentity(t *testing.T) {
	m := MustParse(spliceBase)
	inc := m.FuncByName("inc")
	twice := m.FuncByName("twice")
	names, err := ParseInto(m, `
define i32 @inc(i32 %y) {
entry:
  %r = add i32 %y, 2
  ret i32 %r
}
`)
	if err != nil {
		t.Fatalf("ParseInto: %v", err)
	}
	if len(names) != 1 || names[0] != "inc" {
		t.Fatalf("names = %v, want [inc]", names)
	}
	if got := m.FuncByName("inc"); got != inc {
		t.Fatalf("@inc identity changed across redefinition")
	}
	if inc.Param(0).Name() != "y" {
		t.Fatalf("param name = %q, want y", inc.Param(0).Name())
	}
	// Callers in @twice still point at the same object, so the printed
	// module reflects the new body with intact calls.
	var callee *ir.Function
	twice.Instrs(func(in *ir.Instruction) bool {
		if in.Op() == ir.OpCall {
			callee = in.Operand(0).(*ir.Function)
			return false
		}
		return true
	})
	if callee != inc {
		t.Fatalf("call target rebound: %p vs %p", callee, inc)
	}
	if !strings.Contains(m.String(), "add i32 %y, 2") {
		t.Fatalf("new body not present:\n%s", m.String())
	}
}

func TestParseIntoRecursionAndForwardRefs(t *testing.T) {
	m := MustParse(spliceBase)
	// A redefined body may call itself and functions defined later in the
	// same fragment.
	if _, err := ParseInto(m, `
define i32 @inc(i32 %x) {
entry:
  %c = icmp sgt i32 %x, 10
  br i1 %c, label %big, label %small
big:
  %h = call i32 @helper(i32 %x)
  ret i32 %h
small:
  %r = call i32 @inc(i32 10)
  ret i32 %r
}

define i32 @helper(i32 %x) {
entry:
  ret i32 %x
}
`); err != nil {
		t.Fatalf("ParseInto: %v", err)
	}
	inc := m.FuncByName("inc")
	var self bool
	inc.Instrs(func(in *ir.Instruction) bool {
		if in.Op() == ir.OpCall && in.Operand(0) == ir.Value(inc) {
			self = true
		}
		return true
	})
	if !self {
		t.Fatalf("recursive call did not resolve to the live @inc")
	}
	if _, err := Parse(m.String()); err != nil {
		t.Fatalf("reparse after splice: %v", err)
	}
}

func TestParseIntoSignatureMismatch(t *testing.T) {
	m := MustParse(spliceBase)
	_, err := ParseInto(m, `
define i64 @inc(i64 %x) {
entry:
  ret i64 %x
}
`)
	if err == nil || !strings.Contains(err.Error(), "different signature") {
		t.Fatalf("err = %v, want signature mismatch", err)
	}
}

func TestParseIntoRollbackOnError(t *testing.T) {
	m := MustParse(spliceBase)
	before := m.String()
	nf, ng := len(m.Funcs), len(m.Globals)
	// The first function parses fine; the second has an undefined local,
	// so the whole fragment must be rejected and rolled back — including
	// the new global, the new function and the synthesized @ext decl.
	_, err := ParseInto(m, `
@g = global i32 7

define i32 @fresh(i32 %x) {
entry:
  %v = call i32 @ext(i32 %x)
  ret i32 %v
}

define i32 @broken(i32 %x) {
entry:
  ret i32 %nope
}
`)
	if err == nil {
		t.Fatalf("ParseInto accepted a fragment with an undefined local")
	}
	if len(m.Funcs) != nf || len(m.Globals) != ng {
		t.Fatalf("rollback incomplete: %d funcs %d globals, want %d/%d",
			len(m.Funcs), len(m.Globals), nf, ng)
	}
	if m.FuncByName("fresh") != nil || m.FuncByName("ext") != nil {
		t.Fatalf("rollback left fragment functions in the name index")
	}
	if got := m.String(); got != before {
		t.Fatalf("module changed across failed splice:\n%s", got)
	}
}

func TestParseIntoDuplicateDefineInFragment(t *testing.T) {
	m := MustParse(spliceBase)
	_, err := ParseInto(m, `
define i32 @a(i32 %x) {
entry:
  ret i32 %x
}

define i32 @a(i32 %x) {
entry:
  ret i32 %x
}
`)
	if err == nil || !strings.Contains(err.Error(), "defined twice") {
		t.Fatalf("err = %v, want duplicate define", err)
	}
	if m.FuncByName("a") != nil {
		t.Fatalf("duplicate fragment left @a behind")
	}
}

func TestParseIntoGlobals(t *testing.T) {
	m := MustParse(`
@g = global i32 1

define i32 @load_g() {
entry:
  %p = load i32, i32* @g
  ret i32 %p
}
`)
	g := m.GlobalByName("g")
	if _, err := ParseInto(m, `
@g = external global i32
@h = global i32 2

define i32 @load_h() {
entry:
  %p = load i32, i32* @h
  ret i32 %p
}
`); err != nil {
		t.Fatalf("ParseInto: %v", err)
	}
	if m.GlobalByName("g") != g {
		t.Fatalf("@g identity changed across re-declaration")
	}
	if m.GlobalByName("h") == nil {
		t.Fatalf("@h not added")
	}
	// Conflicting type is rejected.
	if _, err := ParseInto(m, `@g = external global i64`); err == nil {
		t.Fatalf("ParseInto accepted @g with a different type")
	}
}

func TestParseRejectsDuplicateDefine(t *testing.T) {
	_, err := Parse(spliceBase + `
define i32 @inc(i32 %x) {
entry:
  ret i32 %x
}
`)
	if err == nil || !strings.Contains(err.Error(), "defined twice") {
		t.Fatalf("err = %v, want duplicate define", err)
	}
}

// nested returns a struct (or, with array, an array) type nested depth
// levels deep around i32.
func nested(depth int, array bool) string {
	if array {
		return strings.Repeat("[1 x ", depth) + "i32" + strings.Repeat("]", depth)
	}
	return strings.Repeat("{", depth) + "i32" + strings.Repeat("}", depth)
}

// TestTypeDepthCap: types nest up to MaxTypeDepth levels and no
// deeper, through Parse and through ParseInto, whose module a refused
// fragment leaves byte-identical. Without the cap a deep enough type
// overflows the parser's stack, which kills the process.
func TestTypeDepthCap(t *testing.T) {
	for _, array := range []bool{false, true} {
		for _, depth := range []int{MaxTypeDepth, MaxTypeDepth + 1} {
			ty := nested(depth, array)
			src := "@deep = external global " + ty + "\n" +
				"define void @deep_fn(" + ty + "* %p) {\nentry:\n  ret void\n}\n"
			ok := depth <= MaxTypeDepth
			if _, err := Parse(src); (err == nil) != ok {
				t.Errorf("Parse of a type %d deep (array %v): err %v", depth, array, err)
			}
			m := MustParse(spliceBase)
			before := m.String()
			_, err := ParseInto(m, src)
			switch {
			case (err == nil) != ok:
				t.Errorf("ParseInto of a type %d deep (array %v): err %v", depth, array, err)
			case err != nil && m.String() != before:
				t.Errorf("a refused ParseInto of a type %d deep changed the module", depth)
			case err == nil && m.FuncByName("deep_fn") == nil:
				t.Errorf("ParseInto of a type %d deep did not define @deep_fn", depth)
			}
		}
	}
}

// TestParseIntoCheckedVeto: check sees the names the fragment defines,
// in order, before anything is grafted; its refusal rolls the module
// back and comes back as is, its consent grafts every body.
func TestParseIntoCheckedVeto(t *testing.T) {
	frag := `
define i32 @inc(i32 %y) {
entry:
  %r = add i32 %y, 2
  ret i32 %r
}

define i32 @fresh(i32 %x) {
entry:
  ret i32 %x
}
`
	m := MustParse(spliceBase)
	before := m.String()
	veto := errors.New("vetoed")
	var seen []string
	_, err := ParseIntoChecked(m, frag, func(names []string) error {
		seen = names
		if !strings.Contains(m.String(), "add i32 %x, 1") {
			t.Error("a body was grafted before check ran")
		}
		return veto
	})
	if err != veto {
		t.Fatalf("err = %v, want the check's own error", err)
	}
	if !slices.Equal(seen, []string{"inc", "fresh"}) {
		t.Fatalf("check saw %v, want [inc fresh]", seen)
	}
	if m.String() != before || m.FuncByName("fresh") != nil {
		t.Fatalf("a vetoed splice changed the module:\n%s", m.String())
	}
	names, err := ParseIntoChecked(m, frag, func([]string) error { return nil })
	if err != nil || !slices.Equal(names, seen) {
		t.Fatalf("consented splice: names %v, err %v", names, err)
	}
	if !strings.Contains(m.String(), "add i32 %y, 2") {
		t.Fatalf("consented splice did not graft @inc:\n%s", m.String())
	}
}

// TestParseIntoEmptyBodyGraftsNothing: a definition without a block is
// a parse error before anything is grafted, even when an earlier body
// in the same fragment parsed cleanly.
func TestParseIntoEmptyBodyGraftsNothing(t *testing.T) {
	m := MustParse(spliceBase)
	before := m.String()
	_, err := ParseInto(m, `
define i32 @inc(i32 %y) {
entry:
  %r = add i32 %y, 2
  ret i32 %r
}

define i32 @twice(i32 %x) {
}
`)
	if err == nil || !strings.Contains(err.Error(), "without a block") {
		t.Fatalf("err = %v, want a definition without a block", err)
	}
	if got := m.String(); got != before {
		t.Fatalf("module changed across a failed splice:\n%s", got)
	}
}
