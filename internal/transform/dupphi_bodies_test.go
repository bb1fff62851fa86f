package transform_test

// The second half of the duplicate-phi specification test (the first is
// in dupphi_spec_test.go): the bodies the code generator really hands to
// clean-up. This package can import internal/core where package
// transform cannot, so every RemoveDuplicatePhis call made while merged
// bodies are built and simplified — inside core's promoteAndFold, before
// any clean-up has run, and inside Simplify — is replayed by the
// specification on a clone taken at entry.

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/align"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/ir"
	"repro/internal/search"
	"repro/internal/synth"
	"repro/internal/transform"
)

func TestDuplicatePhisMatchSpecOnMergedBodies(t *testing.T) {
	// The inputs first: generating them runs clean-up too.
	//
	// The 400 seeded top-1 pairs core's BenchmarkTrialBuild replays…
	pairs := 400
	if testing.Short() {
		pairs = 100
	}
	m := corpus.Build(corpus.Config{Funcs: 2000, Seed: 7})
	funcs := m.Defined()
	rand.New(rand.NewSource(1)).Shuffle(len(funcs), func(i, j int) { funcs[i], funcs[j] = funcs[j], funcs[i] })
	finder := search.New(search.KindLSH, m.Defined())
	// …and the 50 three- and four-member families its
	// BenchmarkPromoteAndFold does.
	type family struct {
		m   *ir.Module
		fns []*ir.Function
	}
	var families []family
	for seed := int64(0); len(families) < 50 && seed < 200; seed++ {
		k := 3 + int(seed%2)
		fm := synth.Generate(synth.Profile{
			Name: "fam", Seed: 60 + seed, Funcs: 12,
			MinSize: 30, AvgSize: 120, MaxSize: 220,
			CloneFrac: 0.7, FamilySize: k, MutRate: 0.08,
			Loops: 0.6, Switches: 0.5, Floats: 0.2,
		})
		if fns := pickFamily(fm, k); fns != nil {
			families = append(families, family{fm, fns})
		}
	}
	if len(families) < 50 {
		t.Fatalf("only %d families found", len(families))
	}

	var calls, removed, mismatches int
	transform.SetDupPhiCheck(func(f *ir.Function) func(int) {
		want, _ := ir.CloneFunction(f, f.Name())
		return func(got int) {
			calls++
			n := transform.RemoveDuplicatePhisSpec(want)
			removed += n
			// Neither touches a function it removes nothing from.
			if (n != got || n > 0 && want.String() != f.String()) && mismatches < 3 {
				mismatches++
				t.Errorf("RemoveDuplicatePhis removed %d phis, the specification %d\n--- specification\n%s--- got\n%s", got, n, want, f)
			}
		}
	})
	defer transform.SetDupPhiCheck(nil)

	built := 0
	for _, f := range funcs {
		if built == pairs {
			break
		}
		got := finder.Candidates(f, 1)
		if len(got) == 0 {
			continue
		}
		if _, err := core.PlanParams(f, got[0]); err != nil {
			continue
		}
		ares, err := align.AlignFunctions(f, got[0], align.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		merged, _, err := core.MergeAlignedCtx(context.Background(), ir.NewModule(), f, got[0], "merged", ares, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		transform.Simplify(merged)
		built++
	}
	if built != pairs {
		t.Fatalf("corpus yields %d candidate pairs, want %d", built, pairs)
	}
	for _, fam := range families {
		merged, _, err := core.MergeFamily(fam.m, fam.fns, "family", core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		transform.Simplify(merged)
	}
	t.Logf("%d pair and %d family bodies: %d RemoveDuplicatePhis calls replayed, %d phis removed", built, len(families), calls, removed)
	if calls < 3*(built+len(families)) || removed < built {
		t.Errorf("the bodies do not exercise the pass")
	}
}

// pickFamily returns the first k defined functions of m that one
// parameter plan covers, or nil.
func pickFamily(m *ir.Module, k int) []*ir.Function {
	defined := m.Defined()
	for i, f := range defined {
		fam := []*ir.Function{f}
		for _, g := range defined[i+1:] {
			if _, err := core.PlanParams(f, g); err == nil {
				if fam = append(fam, g); len(fam) == k {
					return fam
				}
			}
		}
	}
	return nil
}
