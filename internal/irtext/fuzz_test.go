package irtext

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/synth"
)

// fuzzSeeds returns module texts exercising the full grammar: literal
// corner cases plus synthesized modules covering every opcode family the
// generator emits.
func fuzzSeeds() []string {
	seeds := []string{
		"",
		spliceBase,
		"declare i32 @ext(i32, ...)\n",
		"@g = global i32 7\n@z = global i32 zeroinitializer\n@p = external global i32*\n",
		"define void @v() {\nentry:\n  ret void\n}\n",
		"define {i32, i64}* @s({i32, i64}* %p) {\nentry:\n  ret {i32, i64}* %p\n}\n",
		"define float @f(float %x, double %y) {\nentry:\n  %t = fptrunc double %y to float\n  %r = fadd float %x, %t\n  ret float %r\n}\n",
		"define i8 @arr([4 x i8]* %p, i64 %i) {\nentry:\n  %e = getelementptr [4 x i8], [4 x i8]* %p, i64 0, i64 %i\n  %v = load i8, i8* %e\n  ret i8 %v\n}\n",
	}
	for _, prof := range []synth.Profile{
		{Name: "fuzz-small", Seed: 7, Funcs: 4, MinSize: 4, AvgSize: 12, MaxSize: 30, CloneFrac: 0.5, FamilySize: 2, MutRate: 0.2, Loops: 0.5, Switches: 0.5},
		{Name: "fuzz-branchy", Seed: 11, Funcs: 3, MinSize: 10, AvgSize: 40, MaxSize: 80, Loops: 1, Switches: 1},
	} {
		seeds = append(seeds, synth.Generate(prof).String())
	}
	return seeds
}

// FuzzParse exercises the full-module parser, which is a network-facing
// input surface (the fmerged daemon accepts modules as text IR). A parse
// may fail, but it must not panic, and anything accepted must print back
// out to a form the parser accepts again.
func FuzzParse(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		m, err := Parse(src)
		if err != nil {
			return
		}
		printed := m.String()
		if _, err := Parse(printed); err != nil {
			t.Fatalf("accepted module failed to reparse: %v\n%s", err, printed)
		}
	})
}

// FuzzParseInto splices arbitrary fragments into a fixed base module
// under a check that refuses any fragment redefining @twice, as a
// session refuses a batch that also removes a name it defines: no
// panic, a failed or refused splice leaves the printed module
// byte-identical, and an accepted one prints a module that parses.
func FuzzParseInto(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	f.Add("define i32 @inc(i32 %y) {\nentry:\n  %r = add i32 %y, 3\n  ret i32 %r\n}\n")
	f.Add("define i32 @inc(i32 %y) {\nentry:\n  ret i32 %y\n}\ndefine i32 @twice(i32 %x) {\nentry:\n  ret i32 %x\n}\n")
	f.Add("define i32 @inc(i32 %y) {\nentry:\n  ret i32 %y\n}\ndefine i32 @fresh(i32 %x) {\n}\n")
	for _, depth := range []int{MaxTypeDepth, MaxTypeDepth + 1} {
		f.Add("@deep = external global " + nested(depth, false) + "\n")
		f.Add("define void @deep(" + nested(depth, true) + "* %p) {\nentry:\n  ret void\n}\n")
	}
	refuse := errors.New("batch also removes @twice")
	f.Fuzz(func(t *testing.T, src string) {
		m := MustParse(spliceBase)
		before := m.String()
		_, err := ParseIntoChecked(m, src, func(names []string) error {
			if slices.Contains(names, "twice") {
				return refuse
			}
			return nil
		})
		if err != nil {
			if got := m.String(); got != before {
				t.Fatalf("failed splice mutated module:\n--- before\n%s\n--- after\n%s", before, got)
			}
			return
		}
		if _, err := Parse(m.String()); err != nil {
			t.Fatalf("spliced module failed to reparse: %v\n%s", err, m.String())
		}
	})
}
