package align

import (
	"runtime"
	"slices"
	"testing"
	"weak"

	"repro/internal/ir"
	"repro/internal/irtext"
)

// churnModule's bodies are full of pointer types, and the parser gives
// every occurrence its own *ir.PointerType: redefining them hands the
// interner new type objects for the same few types each round.
const churnModule = `
declare i32 @ext(i32*)

define i32 @a({i32, i64}* %s, [4 x i32*]* %arr, i64 %i) {
e:
  %f0 = getelementptr {i32, i64}, {i32, i64}* %s, i64 0, i32 0
  %p = getelementptr [4 x i32*], [4 x i32*]* %arr, i64 0, i64 %i
  %q = load i32*, i32** %p
  %v = call i32 @ext(i32* %q)
  %w = load i32, i32* %f0
  %sum = add i32 %v, %w
  ret i32 %sum
}

define i32 @b(i32* %x) {
e:
  %slot = alloca i32*
  store i32* %x, i32** %slot
  %y = load i32*, i32** %slot
  %v = call i32 @ext(i32* %y)
  ret i32 %v
}
`

// TestInternerBoundedUnderChurn redefines the same functions round
// after round, as a long-lived session's deltas do, and interns each new
// body with one Interner. The interner's state must stop growing after
// the first round — it is bounded by the distinct types and classes,
// not by the type objects that carry them — and it must not keep an
// earlier round's type objects alive.
func TestInternerBoundedUnderChurn(t *testing.T) {
	m := irtext.MustParse(churnModule)
	it := NewInterner()
	intern := func() [][]int32 {
		var classes [][]int32
		for _, f := range m.Defined() {
			classes = append(classes, NewSeq(f, it).Classes)
		}
		return classes
	}
	want := intern()
	// A type object only the original bodies hold (the signatures survive
	// a redefinition), which the first round replaces.
	old := weak.Make(m.FuncByName("b").Blocks[0].Instrs()[0].AllocTy().(*ir.PointerType))
	var size, classes int
	for round := 0; round < 50; round++ {
		if _, err := irtext.ParseInto(m, churnModule); err != nil {
			t.Fatal(err)
		}
		got := intern()
		for i := range got {
			if !slices.Equal(got[i], want[i]) {
				t.Fatalf("round %d: function %d interned as %v, first as %v", round, i, got[i], want[i])
			}
		}
		it.mu.Lock()
		n := len(it.trie) + len(it.valueID)
		it.mu.Unlock()
		if round == 0 {
			size, classes = n, it.NumClasses()
			continue
		}
		if n != size || it.NumClasses() != classes {
			t.Fatalf("round %d: interner holds %d keys and %d classes, %d and %d after the first round",
				round, n, it.NumClasses(), size, classes)
		}
	}
	runtime.GC()
	if old.Value() != nil {
		t.Error("the interner keeps a replaced body's type objects alive")
	}
	runtime.KeepAlive(it)
	t.Logf("%d keys, %d classes after 50 rounds", size, classes)
}
