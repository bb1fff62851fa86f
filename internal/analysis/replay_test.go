package analysis_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/align"
	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/ir"
	"repro/internal/search"
	"repro/internal/synth"
	"repro/internal/transform"
)

// TestSynthCFGsAgainstNaive checks the analyses against the naive
// reference on the CFGs the pipeline actually sees: synth functions
// with loops, switches and invokes, as generated and after RegToMem's
// edge splitting.
func TestSynthCFGsAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	checked, switches := 0, 0
	for seed := int64(1); checked < 500; seed++ {
		m := synth.Generate(synth.Profile{
			Name: "cfg", Seed: seed, Funcs: 40,
			MinSize: 4, AvgSize: 45, MaxSize: 160,
			Loops: 0.6, Floats: 0.2, ExcRate: 0.08, Switches: 0.6,
		})
		for _, f := range m.Defined() {
			analysis.CheckAgainstNaive(t, f, rng)
			for _, b := range f.Blocks {
				if b.Term().Op() == ir.OpSwitch {
					switches++
				}
			}
			transform.RegToMem(f)
			analysis.CheckAgainstNaive(t, f, rng)
			checked++
		}
	}
	if switches == 0 {
		t.Fatal("no synth function had a switch")
	}
}

// TestMergedBodiesAgainstNaive replays 400 top-1 candidate pairs of the
// 2k corpus through the code generator and checks the analyses on every
// merged body, as generated (one block per straight-line run of aligned
// rows, dispatches on the function identifier) and after clean-up.
func TestMergedBodiesAgainstNaive(t *testing.T) {
	if testing.Short() {
		t.Skip("replays 400 merges")
	}
	rng := rand.New(rand.NewSource(37))
	m := corpus.Build(corpus.Config{Funcs: 2000, Seed: 7})
	funcs := m.Defined()
	finder := search.New(search.KindLSH, funcs)
	bodies := 0
	for _, f := range funcs {
		if bodies == 400 {
			break
		}
		got := finder.Candidates(f, 1)
		if len(got) == 0 {
			continue
		}
		ares, err := align.AlignFunctions(f, got[0], align.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		merged, _, err := core.MergeAlignedCtx(context.Background(), ir.NewModule(), f, got[0], "merged", ares, core.DefaultOptions())
		if err != nil {
			continue // signatures the generator rejects
		}
		analysis.CheckAgainstNaive(t, merged, rng)
		transform.Simplify(merged)
		analysis.CheckAgainstNaive(t, merged, rng)
		if err := ir.VerifyFunction(merged); err != nil {
			t.Fatal(err)
		}
		bodies++
	}
	if bodies != 400 {
		t.Fatalf("replayed %d merged bodies, want 400", bodies)
	}
}
