package costmodel

import (
	"maps"
	"reflect"
	"slices"
	"testing"

	"repro/internal/align"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/ir"
	"repro/internal/synth"
)

// touchUniverse is every function of the three paper suites, priced for
// the target each suite is measured on, and of the 2k corpus.
func touchUniverse(t *testing.T) map[Target][]*ir.Module {
	t.Helper()
	u := map[Target][]*ir.Module{X86_64: {corpus.Build(corpus.Config{Funcs: 2000, Seed: 7})}}
	for _, suite := range []struct {
		profiles []synth.Profile
		target   Target
	}{{synth.SPEC2006(), X86_64}, {synth.SPEC2017(), X86_64}, {synth.MiBench(), Thumb}} {
		for _, p := range suite.profiles {
			u[suite.target] = append(u[suite.target], synth.Generate(p))
		}
	}
	return u
}

// TestTouchMatchesSpec holds the first-touch walk to what it replaces,
// one function at a time, over every function of the paper suites and
// the 2k corpus, all interned by one Interner as a session's are:
//
//   - its entries are align.Linearize's, and its class vector is the
//     interner's for them;
//   - its classes decide exactly Mergeable, by the differential of
//     align's TestClassesMatchEquivalence reduced to one representative
//     per class (Mergeable is an equivalence on the entries it accepts
//     at all): every entry merges with its class's representative, no
//     two representatives merge, and a solo entry merges with nothing;
//   - its profile is the naive one: a map-built histogram of the
//     self-matchable instruction classes with each class's largest
//     InstrBytes, the phis' and landingpads' bytes, the parameter count
//     and core.NewNumbering — and NewFuncProfile's from the same
//     sequence.
func TestTouchMatchesSpec(t *testing.T) {
	it := align.NewInterner()
	var sc TouchScratch
	rep := map[int32]align.Entry{}
	funcs, solo := 0, 0
	for target, mods := range touchUniverse(t) {
		for _, m := range mods {
			for _, f := range m.Defined() {
				funcs++
				seq, p := Touch(f, target, it, &sc)
				entries := align.Linearize(f)
				if !slices.Equal(seq.Entries, entries) {
					t.Fatalf("@%s: the walk's entries are not Linearize's", f.Name())
				}
				if want := it.Classes(entries, nil); !slices.Equal(seq.Classes, want) {
					t.Fatalf("@%s: classes %v, the interner's %v", f.Name(), seq.Classes, want)
				}
				for i, e := range entries {
					c := seq.Classes[i]
					if !align.ClassesMatch(c, c) {
						solo++
						if align.Mergeable(e, e) {
							t.Fatalf("@%s: entry %v is solo but merges with itself", f.Name(), e)
						}
						continue
					}
					r, ok := rep[c]
					if !ok {
						rep[c] = e
					} else if !align.Mergeable(e, r) {
						t.Fatalf("@%s: entry %v of class %d does not merge with the class's %v", f.Name(), e, c, r)
					}
				}
				checkProfile(t, f, target, seq, p)
			}
		}
	}
	classes := slices.Sorted(maps.Keys(rep))
	for i, c1 := range classes {
		for _, c2 := range classes[i+1:] {
			if align.Mergeable(rep[c1], rep[c2]) {
				t.Fatalf("classes %d (%v) and %d (%v) merge", c1, rep[c1], c2, rep[c2])
			}
		}
	}
	t.Logf("%d functions, %d classes, %d solo entries", funcs, len(classes), solo)
}

// checkProfile holds p, f's profile from the walk, to the naive one.
func checkProfile(t *testing.T, f *ir.Function, target Target, seq align.Seq, p *FuncProfile) {
	t.Helper()
	count, width := map[int32]int32{}, map[int32]int32{}
	for i, e := range seq.Entries {
		if c := seq.Classes[i]; !e.IsLabel() && align.ClassesMatch(c, c) {
			count[c]++
			width[c] = max(width[c], int32(InstrBytes(e.Instr, target)))
		}
	}
	elastic := 0
	f.Instrs(func(in *ir.Instruction) bool {
		if in.Op() == ir.OpPhi || in.Op() == ir.OpLandingPad {
			elastic += InstrBytes(in, target)
		}
		return true
	})
	want := &FuncProfile{fn: f, target: target, Elastic: elastic, Params: len(f.Params()), num: core.NewNumbering(f)}
	for _, c := range slices.Sorted(maps.Keys(count)) {
		want.Classes = append(want.Classes, c)
		want.Counts = append(want.Counts, count[c])
		want.ClassBytes = append(want.ClassBytes, width[c])
	}
	for _, got := range []*FuncProfile{p, NewFuncProfile(f, target, seq)} {
		if !sameProfile(got, want) {
			t.Fatalf("@%s: profile %+v, the naive one %+v", f.Name(), *got, *want)
		}
	}
}

// sameProfile compares two unsettled profiles field by field, an empty
// histogram column equal to a nil one.
func sameProfile(a, b *FuncProfile) bool {
	return a.fn == b.fn && a.target == b.target && a.Elastic == b.Elastic && a.Params == b.Params &&
		slices.Equal(a.Classes, b.Classes) && slices.Equal(a.Counts, b.Counts) &&
		slices.Equal(a.ClassBytes, b.ClassBytes) && reflect.DeepEqual(a.num, b.num) &&
		!a.slackKnown && !b.slackKnown
}
