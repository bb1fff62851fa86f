package search

import (
	"testing"

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
	ix := NewIndexed(funcs, nil)
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
