package core

import (
	"context"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/align"
	"repro/internal/ir"
	"repro/internal/search"
	"repro/internal/synth"
	"repro/internal/transform"
)

// valueState is what a trial must leave as it found it of one source
// value: its use slice — length, capacity, backing array and every slot
// up to the capacity — and, for a block, its four stamps.
type valueState struct {
	n, c   int
	data   *ir.Use
	slots  []ir.Use
	stamps [4]uint32
}

func stateOf(v ir.Value) valueState {
	us := ir.UsesOf(v)
	s := valueState{n: len(us), c: cap(us), data: unsafe.SliceData(us), slots: slices.Clone(us[:cap(us)])}
	if b, ok := v.(*ir.Block); ok {
		s.stamps = [4]uint32{b.Stamp(), b.PhiStamp(), b.OperandStamp(), b.UseStamp()}
	}
	return s
}

// sourcesState records every argument, block and instruction of fns,
// and each function's edit counter.
func sourcesState(fns []*ir.Function) (map[ir.Value]valueState, []uint32) {
	vals := map[ir.Value]valueState{}
	edits := make([]uint32, len(fns))
	for i, f := range fns {
		edits[i] = f.Edits()
		for _, p := range f.Params() {
			vals[p] = stateOf(p)
		}
		for _, b := range f.Blocks {
			vals[b] = stateOf(b)
			for _, in := range b.Instrs() {
				vals[in] = stateOf(in)
			}
		}
	}
	return vals, edits
}

// TestTrialLeavesSourcesAlone: a trial — a pair or a flatten, built in
// place in its sources' module, cleaned up, then removed and released
// as the driver discards a loser — writes nothing of the functions it
// merges. Every argument, block and instruction of every source keeps
// its use slice as it was (length, capacity, backing array and slots),
// every block its stamps, every function its edit counter. The pairs
// are each SPEC2006 and MiBench function with its nearest candidate,
// the flattens each function with its two nearest (one function in four
// under -short).
func TestTrialLeavesSourcesAlone(t *testing.T) {
	ctx := context.Background()
	opts := DefaultOptions()
	step := 1
	if testing.Short() {
		step = 4
	}
	trials, failed := [2]int{}, 0
	check := func(kind int, m *ir.Module, fns []*ir.Function, build func() (*ir.Function, error)) {
		t.Helper()
		if failed == 10 {
			t.Fatal("ten trials wrote to their sources; stopping")
		}
		vals, edits := sourcesState(fns)
		merged, err := build()
		if err != nil {
			return
		}
		transform.Simplify(merged)
		m.RemoveFunc(merged)
		ir.Release(merged)
		trials[kind]++
		after, editsAfter := sourcesState(fns)
		bad := 0
		for v, was := range vals {
			now := after[v]
			if now.n != was.n || now.c != was.c || now.data != was.data || !slices.Equal(now.slots, was.slots) || now.stamps != was.stamps {
				bad++
			}
		}
		if bad > 0 || !slices.Equal(edits, editsAfter) {
			failed++
			t.Errorf("%s: %d source values changed (use slice or stamps); edit counters %v, were %v", names(fns), bad, editsAfter, edits)
		}
	}
	for _, prof := range append(synth.SPEC2006(), synth.MiBench()...) {
		m := synth.Generate(prof)
		defined := m.Defined()
		finder := search.New(search.KindExact, defined)
		for i, f := range defined {
			if i%step != 0 {
				continue
			}
			got := finder.Candidates(f, 2)
			if len(got) == 0 {
				continue
			}
			pair := []*ir.Function{f, got[0]}
			if plan, err := PlanParams(pair...); err == nil {
				check(0, m, pair, func() (*ir.Function, error) {
					ares, err := align.AlignFunctions(pair[0], pair[1], opts.Align)
					if err != nil {
						return nil, err
					}
					merged, _, err := MergePairWithPlanCtx(ctx, m, pair, "trial.pair", ares, plan, opts)
					return merged, err
				})
			}
			if len(got) < 2 {
				continue
			}
			fam := []*ir.Function{f, got[0], got[1]}
			if plan, err := PlanParams(fam...); err == nil {
				check(1, m, fam, func() (*ir.Function, error) {
					merged, _, err := MergeFamilyWithPlanCtx(ctx, m, fam, "trial.flatten", plan, opts)
					return merged, err
				})
			}
		}
		if err := ir.VerifyModule(m); err != nil {
			t.Fatalf("%s after its trials: %v", prof.Name, err)
		}
	}
	t.Logf("%d pair and %d flatten trials built and discarded", trials[0], trials[1])
	if trials[0] == 0 || trials[1] == 0 {
		t.Errorf("%d pair and %d flatten trials: a kind went untested", trials[0], trials[1])
	}
}
