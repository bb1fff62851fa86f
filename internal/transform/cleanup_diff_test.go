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

// TestCleanupMatchesSpec: on two repair-differential modules (a third of
// their pairs, and families) and a third of the SPEC2006 and MiBench
// profiles' modules (one pair in 400, and families), plus the clean-up
// shapes; -short takes a third of the bodies, MiBench's alone of the
// suites', drops the shapes clean-up leaves alone and takes 150 functions
// of each other. SCALE_CORPUS=1 takes the sweep to
// all sixteen repair modules, every pair, and one suite pair in ten.
func TestCleanupMatchesSpec(t *testing.T) {
	repairModules, keep, suiteKeep := 2, 0.33, 0.0025
	switch {
	case os.Getenv("SCALE_CORPUS") != "":
		repairModules, keep, suiteKeep = 16, 1, 0.1
	case testing.Short():
		keep, suiteKeep = keep/3, suiteKeep/3
	}
	var modules []*ir.Module
	for seed := 1; seed <= repairModules; seed++ {
		modules = append(modules, synth.Generate(repairBodyProfile(int64(seed), 24)))
	}
	bodies := fixpointBodies(t, modules, keep)
	repair := len(bodies)
	var suites []*ir.Module
	profileSets := [][]synth.Profile{synth.SPEC2006(), synth.MiBench()}
	if testing.Short() {
		profileSets = profileSets[1:] // MiBench's functions are the smaller
	}
	for _, profiles := range profileSets {
		for _, p := range profiles {
			p.Funcs = max(2, p.Funcs/3)
			suites = append(suites, synth.Generate(p))
		}
	}
	bodies = append(bodies, fixpointBodies(t, suites, suiteKeep)...)
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
	for _, sh := range cleanupShapes(t) {
		fns := sh.fns
		if testing.Short() {
			if sh.name == "tiny8k" || sh.name == "merged-simplified" {
				continue // clean-up changes none of these
			}
			fns = fns[:min(len(fns), 150)]
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
// modules: every function that verifies, through the fold fixpoint and
// Simplify.
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
	f.Fuzz(func(t *testing.T, src string) {
		m, err := irtext.Parse(src)
		if err != nil {
			return
		}
		for _, fn := range m.Defined() {
			if ir.VerifyFunction(fn) != nil {
				continue
			}
			if diff, _ := cleanBoth(fn, true); diff != "" {
				t.Fatalf("@%s: %s", fn.Name(), diff)
			}
		}
	})
}
