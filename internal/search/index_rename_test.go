package search

import (
	"slices"
	"testing"

	"repro/internal/ir"
	"repro/internal/synth"
)

// TestLSHRenameReindex: the index orders and tie-breaks by the name a
// function was indexed under, so a SetName between Add and the next
// Add/Remove leaves it consistent (it answers as of the last index
// time), and the re-index replaces the entry rather than duplicating
// it. This is the Session.Update path for renamed functions.
func TestLSHRenameReindex(t *testing.T) {
	m := synth.Generate(synth.Profile{
		Name: "ren", Seed: 5, Funcs: 12,
		MinSize: 20, AvgSize: 40, MaxSize: 40,
		CloneFrac: 0.8, FamilySize: 3, MutRate: 0, Loops: 0.4,
	})
	funcs := m.Defined()
	l := newIndex(funcs)
	n := l.Stats().Indexed
	before := make(map[*ir.Function][]*ir.Function, n)
	for _, g := range funcs {
		before[g] = l.Candidates(g, 3)
	}

	// Rename a function so its (size, name) sort key moves within the
	// equal-size run. Until it is re-indexed every other function's
	// list is what it was, in the same order.
	f := funcs[len(funcs)/2]
	old := f.Name()
	f.SetName("zzz_" + old)
	for _, g := range funcs {
		if got := l.Candidates(g, 3); g != f && !slices.Equal(got, before[g]) {
			t.Fatalf("%s: list changed under a rename without re-index: %v, was %v", g.Name(), names(got), names(before[g]))
		}
	}

	// Re-index it, as Session.sync does: same population, and from here
	// on the lists are the specification's over the renamed state.
	l.Add(f)
	if got := l.Stats().Indexed; got != n {
		t.Fatalf("re-add after rename changed index count: %d -> %d", n, got)
	}
	if got := len(l.Order()); got != n {
		t.Fatalf("Order has %d entries for %d functions (stale duplicate)", got, n)
	}
	sameLists(t, newSpec(funcs), l, 3, 1, "after rename and re-add")

	// Rename again and remove without re-indexing: the slot table, not
	// the live name, locates the entry.
	f.SetName("aaa_" + old)
	l.Remove(f)
	if got := l.Stats().Indexed; got != n-1 {
		t.Fatalf("remove after rename: index count %d, want %d", got, n-1)
	}
	spec := newSpec(funcs)
	spec.Remove(f)
	sameLists(t, spec, l, 3, 1, "after rename and remove")
	for _, g := range l.Order() {
		if g == f {
			t.Fatal("removed function still in Order")
		}
	}
}
