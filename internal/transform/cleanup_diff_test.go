package transform_test

// The stamped clean-up against its specification (simplify_spec_test.go):
// every body that enters SSA repair's fold fixpoint while merged bodies
// are built is captured, and two clones of it go through the fold
// fixpoint and then Simplify — one by the stamped passes, carrying their
// marks from the first into the second as core and the driver do, one by
// the round loops — and must come out as the same text, with the same
// change counts. The clean-up shapes of settled_test.go go through
// Simplify alone.

import (
	"fmt"
	"math/rand"
	"os"
	"slices"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/irtext"
	"repro/internal/synth"
	"repro/internal/transform"
)

// repairBodyProfile is the module shape of core's repair differential:
// small bodies with loops, switches, floats and invokes with
// landingpads.
func repairBodyProfile(seed int64, funcs int) synth.Profile {
	return synth.Profile{
		Name: "repair", Seed: seed, Funcs: funcs,
		MinSize: 6, AvgSize: 28, MaxSize: 80,
		CloneFrac: 0.5, FamilySize: 3, MutRate: 0.12,
		Loops: 0.6, Switches: 0.5, ExcRate: 0.15, Floats: 0.2,
	}
}

// fixpointBodies merges, with and without phi-node coalescing, the pairs
// and three- and four-member families of the given modules — every pair
// one plan covers with probability keep, every family — and returns each
// body as it entered the fold fixpoint.
func fixpointBodies(t testing.TB, modules []*ir.Module, keep float64) []*ir.Function {
	var bodies []*ir.Function
	transform.SetFixpointEntry(func(f *ir.Function) {
		c, _ := ir.CloneFunction(f, f.Name())
		bodies = append(bodies, c)
	})
	defer transform.SetFixpointEntry(nil)
	rng := rand.New(rand.NewSource(5))
	nopc := core.DefaultOptions()
	nopc.PhiCoalescing = false
	merge := func(fns []*ir.Function, opts core.Options) {
		if _, err := core.PlanParams(fns...); err != nil {
			return
		}
		if _, _, err := core.MergeFamily(ir.NewModule(), fns, "merged", opts); err != nil {
			t.Fatalf("merging: %v", err)
		}
	}
	for _, m := range modules {
		defined := m.Defined()
		for _, opts := range []core.Options{core.DefaultOptions(), nopc} {
			for i, f := range defined {
				for _, g := range defined[i+1:] {
					if rng.Float64() < keep {
						merge([]*ir.Function{f, g}, opts)
					}
				}
			}
			for k := 3; k <= 4; k++ {
				if fns := pickFamily(m, k); fns != nil {
					merge(fns, opts)
				}
			}
		}
	}
	return bodies
}

// cleanBoth runs clean-up on two clones of f, stamped and by the
// specification, and reports how they differ ("" if they do not) and
// how many changes they made. The text is compared once, at the end.
func cleanBoth(f *ir.Function, fold bool) (diff string, changes int) {
	got, _ := ir.CloneFunction(f, f.Name())
	want, _ := ir.CloneFunction(f, f.Name())
	if fold {
		n := transform.FoldFixpoint(got, analysis.NewDomTree(got))
		if m := transform.FoldFixpointSpec(want, analysis.NewDomTree(want)); n != m {
			return fmt.Sprintf("FoldFixpoint made %d changes, the specification %d\n--- input\n%s--- specification\n%s--- got\n%s", n, m, f, want, got), 0
		}
		changes += n
	}
	n := transform.Simplify(got)
	if m := transform.SimplifySpec(want); n != m || got.String() != want.String() {
		return fmt.Sprintf("Simplify made %d changes, the specification %d\n--- input\n%s--- specification\n%s--- got\n%s", n, m, f, want, got), 0
	}
	return "", changes + n
}

// TestCleanupMatchesSpec, as a seeded sample: two repair-differential
// modules (a ninth of their pairs, and families), the MiBench profiles
// at a third of their size (one pair in 1,200, and families; bodies of
// up to 4,000 instructions) and 100 functions of each clean-up shape.
// SCALE_CORPUS takes the sweep to all sixteen repair modules and every
// pair, every MiBench and SPEC2006 profile at a third of its size with
// one pair in ten and every body, and every function of the shapes.
func TestCleanupMatchesSpec(t *testing.T) {
	full := os.Getenv("SCALE_CORPUS") != ""
	repairModules, keep, suiteKeep := 2, 0.11, 0.00083
	profileSets := [][]synth.Profile{synth.SPEC2006(), synth.MiBench()}
	if full {
		repairModules, keep, suiteKeep = 16, 1, 0.1
	} else {
		profileSets = profileSets[1:] // MiBench's functions are the smaller
	}
	var modules []*ir.Module
	for seed := 1; seed <= repairModules; seed++ {
		modules = append(modules, synth.Generate(repairBodyProfile(int64(seed), 24)))
	}
	bodies := fixpointBodies(t, modules, keep)
	repair := len(bodies)
	var suites []*ir.Module
	for _, profiles := range profileSets {
		for _, p := range profiles {
			p.Funcs = max(2, p.Funcs/3)
			suites = append(suites, synth.Generate(p))
		}
	}
	for _, f := range fixpointBodies(t, suites, suiteKeep) {
		if full || f.NumInstrs() <= 4000 {
			bodies = append(bodies, f)
		}
	}
	if repair < 50 || len(bodies)-repair < 50 {
		t.Fatalf("captured %d repair and %d suite bodies; the sample is too small", repair, len(bodies)-repair)
	}
	changed, fails := 0, 0
	for _, f := range bodies {
		diff, n := cleanBoth(f, true)
		if diff != "" {
			if fails++; fails <= 3 {
				t.Errorf("body @%s: %s", f.Name(), diff)
			}
		}
		if n > 0 {
			changed++
		}
	}
	t.Logf("%d repair and %d suite bodies through the fold fixpoint and Simplify, %d of them changed: identical to the specification", repair, len(bodies)-repair, changed)
	rng := rand.New(rand.NewSource(3))
	for _, sh := range cleanupShapes(t) {
		fns := sh.fns
		if !full && len(fns) > 100 {
			fns = slices.Clone(fns)
			rng.Shuffle(len(fns), func(i, j int) { fns[i], fns[j] = fns[j], fns[i] })
			fns = fns[:100]
		}
		changed := 0
		for _, f := range fns {
			diff, n := cleanBoth(f, false)
			if diff != "" {
				if fails++; fails <= 3 {
					t.Errorf("%s @%s: %s", sh.name, f.Name(), diff)
				}
			}
			if n > 0 {
				changed++
			}
		}
		t.Logf("%-17s %5d functions through Simplify, %5d changed: identical to the specification", sh.name, len(fns), changed)
	}
	if fails > 3 {
		t.Errorf("... %d more differ", fails-3)
	}
}

// BenchmarkCleanup times the clean-up one trial body gets — the fold
// fixpoint, then Simplify — stamped and by the specification, over the
// bodies TestCleanupMatchesSpec captures from the two repair modules;
// one op is one body, cloned off the clock.
func BenchmarkCleanup(b *testing.B) {
	var modules []*ir.Module
	for seed := int64(1); seed <= 2; seed++ {
		modules = append(modules, synth.Generate(repairBodyProfile(seed, 24)))
	}
	bodies := fixpointBodies(b, modules, 0.5)
	for _, arm := range []struct {
		name           string
		fold, simplify func(*ir.Function) int
	}{
		{"stamped", func(f *ir.Function) int { return transform.FoldFixpoint(f, analysis.NewDomTree(f)) }, transform.Simplify},
		{"spec", func(f *ir.Function) int { return transform.FoldFixpointSpec(f, analysis.NewDomTree(f)) }, transform.SimplifySpec},
	} {
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				f, _ := ir.CloneFunction(bodies[i%len(bodies)], "body")
				b.StartTimer()
				arm.fold(f)
				arm.simplify(f)
			}
		})
	}
}

// FuzzCleanup runs the TestCleanupMatchesSpec comparison over parsed
// modules: every function that verifies, through Simplify alone and
// through the fold fixpoint and Simplify.
func FuzzCleanup(f *testing.F) {
	f.Add(irtext.Fig2Module)
	f.Add(`define i32 @f(i1 %c, i32 %x) {
entry:
  br i1 %c, label %a, label %b
a:
  br label %e
e:
  br label %j
b:
  br label %j
j:
  %p = phi i32 [ %x, %e ], [ undef, %b ]
  %q = phi i32 [ %x, %e ], [ %x, %b ]
  %r = add i32 %q, 0
  ret i32 %r
}
`)
	// b absorbs s, which branches back to b: b's own branch is a use of
	// s, and b is a successor of s, but neither makes b's instructions
	// (which s's fold changes) clean.
	f.Add(`define i32 @h(i32 %x, i1 %c) {
entry:
  br label %b
b:
  %i = phi i32 [ 0, %entry ], [ %n, %s ]
  br label %s
s:
  %q = phi i32 [ 7, %b ]
  %k = xor i32 %q, 29
  %n = add i32 %i, %k
  br i1 %c, label %b, label %out
out:
  ret i32 %n
}
`)
	f.Fuzz(func(t *testing.T, src string) {
		m, err := irtext.Parse(src)
		if err != nil {
			return
		}
		for _, fn := range m.Defined() {
			if ir.VerifyFunction(fn) != nil {
				continue
			}
			for _, fold := range []bool{false, true} {
				if diff, _ := cleanBoth(fn, fold); diff != "" {
					t.Fatalf("@%s (fold fixpoint %v): %s", fn.Name(), fold, diff)
				}
			}
		}
	})
}
