package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/ir"
	"repro/internal/irtext"
)

// stepCtx reports cancellation after a fixed number of Err polls, so a
// test can abort a merge at every internal cancellation point in turn.
type stepCtx struct{ remaining int }

func (c *stepCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *stepCtx) Done() <-chan struct{}       { return nil }
func (c *stepCtx) Value(any) any               { return nil }
func (c *stepCtx) Err() error {
	if c.remaining <= 0 {
		return context.Canceled
	}
	c.remaining--
	return nil
}

// checkNoDanglingUses asserts every recorded use in the module belongs
// to an instruction that is still attached to a function of the module.
func checkNoDanglingUses(t *testing.T, m *ir.Module, k int) {
	t.Helper()
	attached := map[*ir.Function]bool{}
	for _, f := range m.Funcs {
		attached[f] = true
	}
	checkValue := func(v ir.Value) {
		for _, u := range ir.UsesOf(v) {
			b := u.User.Parent()
			if b == nil || b.Parent() == nil || !attached[b.Parent()] {
				t.Fatalf("k=%d: dangling use of %v by detached instruction %v", k, v, u.User.Op())
			}
		}
	}
	for _, f := range m.Funcs {
		for _, p := range f.Params() {
			checkValue(p)
		}
		for _, b := range f.Blocks {
			checkValue(b)
			for _, in := range b.Instrs() {
				checkValue(in)
			}
		}
	}
}

// TestMergeCtxCancelLeavesCleanModule aborts a pair merge (the
// driver's entry, MergeFamilyWithPlanCtx of two, which polls in the
// alignment and in code generation) after every possible number of
// context polls: whatever the phase reached, the
// partial merged function must be fully removed — no leftover function,
// no dangling use records on the originals — and once the poll budget
// exceeds the merge's needs, the merge must succeed.
func TestMergeCtxCancelLeavesCleanModule(t *testing.T) {
	completed := false
	for k := 0; k < 64 && !completed; k++ {
		m, err := irtext.Parse(irtext.Fig2Module)
		if err != nil {
			t.Fatal(err)
		}
		f1, f2 := m.FuncByName("F1"), m.FuncByName("F2")
		plan, err := PlanParams(f1, f2)
		if err != nil {
			t.Fatal(err)
		}
		merged, _, err := MergeFamilyWithPlanCtx(&stepCtx{remaining: k}, m, []*ir.Function{f1, f2}, "merged.F1.F2", plan, DefaultOptions())
		if err == nil {
			completed = true
			if merged == nil {
				t.Fatalf("k=%d: nil merged function without error", k)
			}
			continue
		}
		if err != context.Canceled {
			t.Fatalf("k=%d: unexpected error %v", k, err)
		}
		if m.FuncByName("merged.F1.F2") != nil {
			t.Fatalf("k=%d: partial merged function left in module", k)
		}
		checkNoDanglingUses(t, m, k)
		if err := ir.VerifyModule(m); err != nil {
			t.Fatalf("k=%d: module does not verify after cancelled merge: %v", k, err)
		}
	}
	if !completed {
		t.Fatal("merge never completed within the poll budget")
	}
}
