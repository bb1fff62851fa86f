package search

import (
	"runtime"
	"testing"

	"repro/internal/corpus"
	"repro/internal/ir"
	"repro/internal/synth"
)

// TestCandidatesAllocatesOnlyTheList: a query with t <= 16 ranks in a
// scratch array on the stack, so its one allocation is the list it
// returns. Every row of a walk asks the finder, so a scratch that
// escaped would cost each row a second allocation.
func TestCandidatesAllocatesOnlyTheList(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what escapes")
	}
	funcs := synth.Generate(synth.Profile{
		Name: "allocs", Seed: 5, Funcs: 200,
		MinSize: 4, AvgSize: 20, MaxSize: 80,
		CloneFrac: 0.4, FamilySize: 4, MutRate: 0.05,
		Loops: 0.4, Switches: 0.3,
	}).Defined()
	ix := New(KindLSH, funcs)
	for _, topT := range []int{1, 5, 16} {
		for _, f := range funcs[:20] {
			if len(ix.Candidates(f, topT)) == 0 {
				t.Fatalf("@%s has no candidates at t=%d", f.Name(), topT)
			}
			if n := testing.AllocsPerRun(20, func() { ix.Candidates(f, topT) }); n != 1 {
				t.Fatalf("a t=%d query for @%s allocates %v times, want 1 (the returned list)", topT, f.Name(), n)
			}
		}
	}
}

// TestNewIndexAllocBudget keeps the bulk build lean: New sizes every
// table once from the function count, so a build allocates what the
// index keeps plus each cell's member list, not the regrowth of its
// tables. Over both 2k corpora a build measures 467 bytes per function;
// it measured 1,091 while the slot and cell tables grew by append. The
// ceiling is the sized build's figure with 5% of slack. The race
// detector moves each function's fingerprint to the heap, so it has its
// own ceiling, set the same way: it measures 858 (1,097 before).
func TestNewIndexAllocBudget(t *testing.T) {
	const parentBytes = 1091
	ceiling := 490.0
	if raceEnabled {
		ceiling = 900
	}
	for _, tc := range []struct {
		name  string
		funcs []*ir.Function
	}{
		{"corpus2k", corpus.Build(corpus.Config{Funcs: 2000, Seed: 5}).Defined()},
		{"tiny2k", tinyCorpus(2000)},
	} {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		New(KindLSH, tc.funcs)
		runtime.ReadMemStats(&m1)
		got := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(len(tc.funcs))
		t.Logf("%s: %.0f bytes per function (ceiling %.0f, parent %d)", tc.name, got, ceiling, parentBytes)
		if got > ceiling {
			t.Errorf("%s: a bulk New allocates %.0f bytes per function, ceiling %.0f", tc.name, got, ceiling)
		}
	}
}
