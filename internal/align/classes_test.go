package align

import (
	"context"
	"testing"

	"repro/internal/ir"
	"repro/internal/irtext"
	"repro/internal/synth"
)

// auxModule exercises every auxiliary field Mergeable inspects: struct
// and array GEPs (equal and differing field indices), switches with
// equal and differing case sets, allocas of different element types,
// identical and differing callees, and comparison predicates.
const auxModule = `
declare i32 @ext(i32)
declare i32 @ext2(i32)

define i32 @gepA({i32, i64}* %s, [4 x i32]* %arr) {
e:
  %f0 = getelementptr {i32, i64}, {i32, i64}* %s, i64 0, i32 0
  %v0 = load i32, i32* %f0
  %a1 = getelementptr [4 x i32], [4 x i32]* %arr, i64 0, i64 1
  %v1 = load i32, i32* %a1
  %sum = add i32 %v0, %v1
  ret i32 %sum
}

define i32 @gepB({i32, i64}* %s, [4 x i32]* %arr) {
e:
  %f1 = getelementptr {i32, i64}, {i32, i64}* %s, i64 0, i32 1
  %w0 = load i64, i64* %f1
  %t = trunc i64 %w0 to i32
  %a2 = getelementptr [4 x i32], [4 x i32]* %arr, i64 0, i64 2
  %v2 = load i32, i32* %a2
  %sum = add i32 %t, %v2
  ret i32 %sum
}

define i32 @swA(i32 %x) {
e:
  %slot = alloca i32
  %dbl = alloca double
  store i32 %x, i32* %slot
  switch i32 %x, label %d [ i32 1, label %a i32 2, label %b ]
a:
  %ca = call i32 @ext(i32 %x)
  br label %d
b:
  %cb = call i32 @ext2(i32 %x)
  br label %d
d:
  %p = icmp slt i32 %x, 4
  %q = icmp ne i32 %x, 5
  ret i32 %x
}

define i32 @swB(i32 %x) {
e:
  %slot = alloca i32
  %oth = alloca i64
  store i32 %x, i32* %slot
  switch i32 %x, label %d [ i32 1, label %a i32 3, label %b ]
a:
  %ca = call i32 @ext(i32 %x)
  br label %d
b:
  %cb = call i32 @ext(i32 %x)
  br label %d
d:
  %p = icmp slt i32 %x, 4
  %q = icmp sgt i32 %x, 5
  ret i32 %x
}
`

// propertyEntries gathers the linearized entries and class vectors of
// every defined function across the given modules under one interner.
func propertyEntries(t *testing.T, mods []*ir.Module) ([]Entry, []int32) {
	t.Helper()
	it := NewInterner()
	var entries []Entry
	var classes []int32
	for _, m := range mods {
		for _, f := range m.Defined() {
			seq := Linearize(f)
			entries = append(entries, seq...)
			classes = it.Classes(seq, classes)
		}
	}
	return entries, classes
}

func propertyModules(t *testing.T) []*ir.Module {
	t.Helper()
	mods := []*ir.Module{
		irtext.MustParse(irtext.Fig2Module),
		irtext.MustParse(auxModule),
		synth.Generate(synth.Profile{
			Name: "propa", Seed: 7, Funcs: 24,
			MinSize: 6, AvgSize: 28, MaxSize: 80,
			CloneFrac: 0.5, FamilySize: 3, MutRate: 0.1,
			Loops: 0.5, Switches: 0.6, Floats: 0.4,
		}),
		synth.Generate(synth.Profile{
			Name: "propb", Seed: 11, Funcs: 16,
			MinSize: 6, AvgSize: 24, MaxSize: 60,
			CloneFrac: 0.3, FamilySize: 2, MutRate: 0.2,
			Loops: 0.7, ExcRate: 0.4, Switches: 0.3,
		}),
	}
	return mods
}

// TestClassesMatchEquivalence is the differential property test of the
// interner: over every pair of entries drawn from the synth suites and
// the handcrafted auxiliary module, class-ID matching must decide
// exactly Mergeable. Any auxiliary field the interner forgot to fold
// into the key (or folded too coarsely) shows up as a counterexample.
func TestClassesMatchEquivalence(t *testing.T) {
	entries, classes := propertyEntries(t, propertyModules(t))
	if len(entries) < 500 {
		t.Fatalf("property universe too small: %d entries", len(entries))
	}
	checked := 0
	for i := range entries {
		for j := i; j < len(entries); j++ {
			want := Mergeable(entries[i], entries[j])
			got := ClassesMatch(classes[i], classes[j])
			if got != want {
				t.Fatalf("entry %d (%v, class %d) vs %d (%v, class %d): ClassesMatch=%v, Mergeable=%v",
					i, entries[i], classes[i], j, entries[j], classes[j], got, want)
			}
			checked++
		}
	}
	t.Logf("checked %d entry pairs over %d entries", checked, len(entries))
}

// TestClassesMatchSymmetricSpec cross-checks the handcrafted cases of
// TestMergeableRules through the interner.
func TestClassesMatchSymmetricSpec(t *testing.T) {
	c1 := ir.NewConstInt(ir.I32, 1)
	it := NewInterner()
	add1 := Entry{Instr: ir.NewBinary(ir.OpAdd, "", c1, c1)}
	add2 := Entry{Instr: ir.NewBinary(ir.OpAdd, "", c1, c1)}
	sub := Entry{Instr: ir.NewBinary(ir.OpSub, "", c1, c1)}
	cmpSlt := Entry{Instr: ir.NewICmp("", ir.PredSLT, c1, c1)}
	cmpNe := Entry{Instr: ir.NewICmp("", ir.PredNE, c1, c1)}
	lab := Entry{Label: ir.NewBlock("x")}
	lab2 := Entry{Label: ir.NewBlock("y")}
	cases := []struct {
		name string
		a, b Entry
	}{
		{"same add", add1, add2},
		{"diff op", add1, sub},
		{"diff pred", cmpSlt, cmpNe},
		{"label vs instr", lab, add1},
		{"labels", lab, lab2},
	}
	for _, tc := range cases {
		want := Mergeable(tc.a, tc.b)
		got := ClassesMatch(it.Class(tc.a), it.Class(tc.b))
		if got != want {
			t.Errorf("%s: ClassesMatch=%v, Mergeable=%v", tc.name, got, want)
		}
	}
}

// samePairs requires two results to hold the bit-identical alignment:
// same score, same counts, and the same entry pointers pair by pair.
func samePairs(t *testing.T, tag string, got, want *Result) {
	t.Helper()
	if got.Score != want.Score || got.Matches != want.Matches ||
		got.InstrMatches != want.InstrMatches || got.MatrixBytes != want.MatrixBytes {
		t.Fatalf("%s: header differs: got (s=%d m=%d im=%d mb=%d), want (s=%d m=%d im=%d mb=%d)",
			tag, got.Score, got.Matches, got.InstrMatches, got.MatrixBytes,
			want.Score, want.Matches, want.InstrMatches, want.MatrixBytes)
	}
	if len(got.Pairs) != len(want.Pairs) {
		t.Fatalf("%s: %d pairs, want %d", tag, len(got.Pairs), len(want.Pairs))
	}
	for k := range got.Pairs {
		if got.Pairs[k].A != want.Pairs[k].A || got.Pairs[k].B != want.Pairs[k].B {
			t.Fatalf("%s: pair %d differs: got (%v,%v), want (%v,%v)",
				tag, k, got.Pairs[k].A, got.Pairs[k].B, want.Pairs[k].A, want.Pairs[k].B)
		}
	}
}

// TestAlignSeqsMatchesReference differentially tests the solver as the
// driver runs it (cached interned sequences, the bit-parallel kernel,
// in-place backtrack, a reused Result) against the full-matrix
// specification on every function pair of a mixed synth module: the
// recovered alignment must be bit-identical, which is what keeps the
// committed merge set stable. That the specification's class test is
// Mergeable itself is TestClassesMatchEquivalence's job.
func TestAlignSeqsMatchesReference(t *testing.T) {
	m := synth.Generate(synth.Profile{
		Name: "refdiff", Seed: 21, Funcs: 14,
		MinSize: 20, AvgSize: 70, MaxSize: 240,
		CloneFrac: 0.5, FamilySize: 2, MutRate: 0.08,
		Loops: 0.5, Switches: 0.5, Floats: 0.3,
	})
	funcs := m.Defined()
	it := NewInterner()
	seqs := make([]Seq, len(funcs))
	for i, f := range funcs {
		seqs[i] = NewSeq(f, it)
	}
	var res Result
	ctx := context.Background()
	pairs := 0
	for i, f1 := range funcs {
		s1 := seqs[i]
		for j, f2 := range funcs[i+1:] {
			s2 := seqs[i+1+j]
			want := alignSpec(s1.Entries, s2.Entries, s1.Classes, s2.Classes)
			if err := AlignSeqsInto(ctx, s1, s2, DefaultOptions(), &res); err != nil {
				t.Fatal(err)
			}
			samePairs(t, f1.Name()+"+"+f2.Name(), &res, want)
			pairs++
		}
	}
	t.Logf("compared %d function pairs", pairs)
}
