package search

import (
	"slices"
	"testing"

	"repro/internal/fingerprint"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/irtext"
	"repro/internal/synth"
)

func parse(t *testing.T, src string) *ir.Module {
	t.Helper()
	m, err := irtext.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return m
}

// twoRenamed is a pair of functions identical up to every local name
// (registers, blocks, parameters), plus a third with one different
// constant.
const twoRenamed = `
declare i32 @ext(i32)

define i32 @a(i32 %n) {
entry:
  %x = add i32 %n, 7
  %c = icmp slt i32 %x, 0
  br i1 %c, label %neg, label %pos
neg:
  %y = call i32 @ext(i32 %x)
  br label %pos
pos:
  %p = phi i32 [ %x, %entry ], [ %y, %neg ]
  ret i32 %p
}

define i32 @b(i32 %m) {
start:
  %u = add i32 %m, 7
  %cc = icmp slt i32 %u, 0
  br i1 %cc, label %below, label %above
below:
  %v = call i32 @ext(i32 %u)
  br label %above
above:
  %q = phi i32 [ %u, %start ], [ %v, %below ]
  ret i32 %q
}

define i32 @c(i32 %n) {
entry:
  %x = add i32 %n, 8
  %c = icmp slt i32 %x, 0
  br i1 %c, label %neg, label %pos
neg:
  %y = call i32 @ext(i32 %x)
  br label %pos
pos:
  %p = phi i32 [ %x, %entry ], [ %y, %neg ]
  ret i32 %p
}
`

func TestHashIgnoresLocalNames(t *testing.T) {
	m := parse(t, twoRenamed)
	a, b, c := m.FuncByName("a"), m.FuncByName("b"), m.FuncByName("c")
	if HashFunction(a) != HashFunction(b) {
		t.Error("renamed clones hash differently")
	}
	if HashFunction(a) == HashFunction(c) {
		t.Error("functions with different constants hash equal")
	}
	if !EqualFunctions(a, b) {
		t.Error("renamed clones not structurally equal")
	}
	if EqualFunctions(a, c) {
		t.Error("functions with different constants reported equal")
	}
}

// selfRecursive: two renamed self-recursive functions must hash equal
// (the self-reference canonicalizes to "self", not the symbol name).
const selfRecursive = `
define i32 @fact(i32 %n) {
entry:
  %c = icmp sle i32 %n, 1
  br i1 %c, label %base, label %rec
base:
  ret i32 1
rec:
  %n1 = sub i32 %n, 1
  %r = call i32 @fact(i32 %n1)
  %p = mul i32 %n, %r
  ret i32 %p
}

define i32 @fact2(i32 %k) {
e:
  %cc = icmp sle i32 %k, 1
  br i1 %cc, label %b, label %r
b:
  ret i32 1
r:
  %k1 = sub i32 %k, 1
  %rr = call i32 @fact2(i32 %k1)
  %pp = mul i32 %k, %rr
  ret i32 %pp
}
`

func TestSelfRecursiveClonesMatch(t *testing.T) {
	m := parse(t, selfRecursive)
	f, g := m.FuncByName("fact"), m.FuncByName("fact2")
	if HashFunction(f) != HashFunction(g) {
		t.Error("renamed self-recursive clones hash differently")
	}
	if !EqualFunctions(f, g) {
		t.Error("renamed self-recursive clones not structurally equal")
	}
}

func TestHashStableUnderClone(t *testing.T) {
	m := synth.Generate(synth.Profile{
		Name: "h", Seed: 5, Funcs: 8, MinSize: 10, AvgSize: 40, MaxSize: 90,
		CloneFrac: 0.5, FamilySize: 2, MutRate: 0, Loops: 0.5, Switches: 0.4,
	})
	for _, f := range m.Defined() {
		clone, _ := ir.CloneFunction(f, f.Name()+".c")
		if HashFunction(f) != HashFunction(clone) {
			t.Errorf("@%s: clone hash differs", f.Name())
		}
		if !EqualFunctions(f, clone) {
			t.Errorf("@%s: clone not structurally equal", f.Name())
		}
	}
}

func TestFamilies(t *testing.T) {
	m := parse(t, twoRenamed)
	a, b, c := m.FuncByName("a"), m.FuncByName("b"), m.FuncByName("c")
	fams := Families([]*ir.Function{a, b, c})
	if len(fams) != 1 {
		t.Fatalf("got %d families, want 1", len(fams))
	}
	if len(fams[0]) != 2 || fams[0][0] != a || fams[0][1] != b {
		t.Fatalf("family = %v, want [a b] with a as representative", names(fams[0]))
	}
}

func names(fs []*ir.Function) []string {
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = f.Name()
	}
	return out
}

// TestForwarderPreservesBehaviour folds b into a forwarder to a and
// differentially checks the fold on deterministic inputs.
func TestForwarderPreservesBehaviour(t *testing.T) {
	orig := parse(t, twoRenamed)
	folded := parse(t, twoRenamed)
	BuildForwarder(folded.FuncByName("b"), folded.FuncByName("a"))
	if err := ir.VerifyModule(folded); err != nil {
		t.Fatalf("folded module does not verify: %v", err)
	}
	of, nf := orig.FuncByName("b"), folded.FuncByName("b")
	for seed := int64(1); seed <= 8; seed++ {
		a := interp.Run(nil, of, interp.ArgsFor(of, seed))
		b := interp.Run(nil, nf, interp.ArgsFor(nf, seed))
		if same, why := interp.SameBehavior(a, b); !same {
			t.Fatalf("forwarder changed behaviour (seed %d): %s", seed, why)
		}
	}
}

func TestForwarderSelfRecursive(t *testing.T) {
	orig := parse(t, selfRecursive)
	folded := parse(t, selfRecursive)
	BuildForwarder(folded.FuncByName("fact2"), folded.FuncByName("fact"))
	if err := ir.VerifyModule(folded); err != nil {
		t.Fatalf("folded module does not verify: %v", err)
	}
	of, nf := orig.FuncByName("fact2"), folded.FuncByName("fact2")
	for seed := int64(1); seed <= 8; seed++ {
		a := interp.Run(nil, of, interp.ArgsFor(of, seed))
		b := interp.Run(nil, nf, interp.ArgsFor(nf, seed))
		if same, why := interp.SameBehavior(a, b); !same {
			t.Fatalf("forwarder changed behaviour (seed %d): %s", seed, why)
		}
	}
}

// finderSymmetry is the contract's Add/Remove/Candidates symmetry and
// accounting on the finder build makes over a clone-rich suite.
func finderSymmetry(t *testing.T, build func([]*ir.Function) Finder) {
	funcs := synth.Generate(synth.Profile{
		Name: "fc", Seed: 9, Funcs: 30, MinSize: 8, AvgSize: 40, MaxSize: 100,
		CloneFrac: 0.6, FamilySize: 3, MutRate: 0.05, Loops: 0.5,
	}).Defined()
	fd := build(funcs)
	order := fd.Order()
	if len(order) != len(funcs) {
		t.Fatalf("Order returned %d functions, want %d", len(order), len(funcs))
	}
	f := order[0]
	cands := fd.Candidates(f, 5)
	if len(cands) == 0 {
		t.Fatalf("no candidates for @%s", f.Name())
	}
	if slices.Contains(cands, f) {
		t.Fatalf("candidate list for @%s contains itself", f.Name())
	}
	// Removing a candidate must drop it from future lists.
	gone := cands[0]
	fd.Remove(gone)
	if slices.Contains(fd.Candidates(f, len(funcs)), gone) {
		t.Fatalf("removed function @%s still returned", gone.Name())
	}
	// Re-adding restores it.
	fd.Add(gone)
	if !slices.Contains(fd.Candidates(f, len(funcs)), gone) {
		t.Fatalf("re-added function @%s not returned", gone.Name())
	}
	st := fd.Stats()
	if st.Queries != 3 {
		t.Errorf("stats queries = %d, want 3", st.Queries)
	}
	if st.Indexed != len(funcs) {
		t.Errorf("stats indexed = %d, want %d", st.Indexed, len(funcs))
	}
	if st.QueryTime <= 0 {
		t.Errorf("stats query time not accumulated")
	}
}

// TestFinderContract is the Finder contract, case by case, on the
// Index: Add/Remove/Candidates symmetry and accounting (held by the
// specification too: cases "exact" and "lsh" name the two), the attempt
// order, exclusion of the query and of removed functions, the threshold,
// no duplicates from a re-Add or a repeated input entry, and — on a
// tie-rich suite, before and after removals, for t up to past the
// corpus — the lists of the full sort the specification finder does.
func TestFinderContract(t *testing.T) {
	fig2 := parse(t, irtext.Fig2Module)
	f1, f2 := fig2.FuncByName("F1"), fig2.FuncByName("F2")
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		// The symmetry contract on the specification, then on the Index.
		{"exact", func(t *testing.T) {
			finderSymmetry(t, func(funcs []*ir.Function) Finder { return newSpec(funcs) })
		}},
		{"lsh", func(t *testing.T) {
			finderSymmetry(t, func(funcs []*ir.Function) Finder { return New(KindLSH, funcs) })
		}},
		{"largest-first", func(t *testing.T) {
			// F1 (10 instructions) before F2 (9).
			if order := New(KindLSH, fig2.Defined()).Order(); !slices.Equal(order, []*ir.Function{f1, f2}) {
				t.Errorf("order = %v, want [F1 F2]", names(order))
			}
		}},
		{"self-and-removed", func(t *testing.T) {
			fd := New(KindLSH, fig2.Defined())
			if c := fd.Candidates(f1, 5); !slices.Equal(c, []*ir.Function{f2}) {
				t.Fatalf("candidates = %v, want [F2]", names(c))
			}
			fd.Remove(f2)
			if c := fd.Candidates(f1, 5); len(c) != 0 {
				t.Errorf("removed function still a candidate: %v", names(c))
			}
			fd.Add(f2)
			if c := fd.Candidates(f1, 5); len(c) != 1 {
				t.Errorf("re-added function missing: %v", names(c))
			}
		}},
		{"threshold", func(t *testing.T) {
			src := ""
			for _, n := range []string{"a", "b", "c", "d", "e"} {
				src += "define i32 @" + n + "(i32 %x) {\ne:\n %y = add i32 %x, 1\n ret i32 %y\n}\n"
			}
			m := parse(t, src)
			fd, f := New(KindLSH, m.Defined()), m.FuncByName("a")
			for _, tv := range []int{1, 2, 4} {
				if got := len(fd.Candidates(f, tv)); got != tv {
					t.Errorf("t=%d returned %d candidates", tv, got)
				}
			}
			if got := len(fd.Candidates(f, 100)); got != 4 {
				t.Errorf("t=100 returned %d candidates, want 4", got)
			}
		}},
		{"add-dedupes", func(t *testing.T) {
			fd := New(KindLSH, fig2.Defined())
			for i := 0; i < 3; i++ {
				fd.Add(f2) // already present
			}
			if c := fd.Candidates(f1, 10); len(c) != 1 {
				t.Fatalf("re-Add duplicated the candidate: %v", names(c))
			}
			if o := fd.Order(); len(o) != 2 {
				t.Fatalf("re-Add duplicated the order: %d entries", len(o))
			}
		}},
		{"build-dedupes", func(t *testing.T) {
			fd := New(KindLSH, []*ir.Function{f1, f2, f1, f2})
			if c := fd.Candidates(f1, 10); len(c) != 1 {
				t.Fatalf("duplicate input inflated candidates: %v", names(c))
			}
			if o := fd.Order(); len(o) != 2 {
				t.Fatalf("duplicate input inflated order: %d entries", len(o))
			}
		}},
		{"full-sort", func(t *testing.T) {
			funcs := synth.Generate(synth.Profile{
				Name: "topt", Seed: 9, Funcs: 160,
				MinSize: 4, AvgSize: 14, MaxSize: 60,
				CloneFrac: 0.6, FamilySize: 5, MutRate: 0.02,
				Loops: 0.4, Switches: 0.3,
			}).Defined()
			fd, spec := New(KindLSH, funcs), newSpec(funcs)
			ties := 0
			check := func() {
				for _, f := range funcs {
					for _, tv := range []int{1, 3, 8, len(funcs) + 5} {
						sameList(t, spec, fd, f, tv, "full sort")
					}
					if c := spec.Candidates(f, 3); len(c) == 3 {
						fp, _ := spec.Fingerprint(f)
						b, _ := spec.Fingerprint(c[1])
						d, _ := spec.Fingerprint(c[2])
						if fingerprint.Distance(&fp, &b) == fingerprint.Distance(&fp, &d) {
							ties++
						}
					}
				}
			}
			check()
			for i, f := range funcs {
				if i%3 == 0 {
					fd.Remove(f)
					spec.Remove(f)
				}
			}
			check()
			if ties < 20 {
				t.Errorf("only %d queries had a distance tie inside their top 3: the suite does not exercise the name tie-break", ties)
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, c.run)
	}
}
