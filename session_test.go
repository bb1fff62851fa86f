package repro

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/ir"
)

// TestSessionOptimizeMatchesOneShot is the public face of the
// differential criterion: a Session's first Optimize must commit
// exactly what the one-shot Optimizer.Optimize commits. WithFinder,
// WithDupFold and WithParallelism are accepted and change nothing: the
// one-shot reference is built with none of them, and the session runs
// both finder names, both WithDupFold values and both parallelism
// settings, so each must leave that equality intact (a session under
// WithDupFold(false) still folds).
func TestSessionOptimizeMatchesOneShot(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		base := synthModule(seed)
		for _, finder := range []FinderKind{ExactFinder, LSHFinder} {
			for _, fold := range []bool{false, true} {
				for _, jobs := range []int{1, 4} {
					name := fmt.Sprintf("seed%d-%v-fold=%v-jobs=%d", seed, finder, fold, jobs)
					t.Run(name, func(t *testing.T) {
						ref, err := New(WithThreshold(2))
						if err != nil {
							t.Fatal(err)
						}
						opt, err := New(WithThreshold(2), WithFinder(finder),
							WithDupFold(fold), WithParallelism(jobs))
						if err != nil {
							t.Fatal(err)
						}
						m1 := ir.CloneModule(base)
						oneShot, err := ref.Optimize(context.Background(), m1)
						if err != nil {
							t.Fatal(err)
						}
						m2 := ir.CloneModule(base)
						s, err := opt.Open(context.Background(), m2)
						if err != nil {
							t.Fatal(err)
						}
						defer s.Close()
						viaSession, err := s.Optimize(context.Background())
						if err != nil {
							t.Fatal(err)
						}
						if len(oneShot.Folds) != len(viaSession.Folds) {
							t.Fatalf("fold counts differ: one-shot %d, session %d",
								len(oneShot.Folds), len(viaSession.Folds))
						}
						if len(oneShot.Merges) != len(viaSession.Merges) {
							t.Fatalf("merge counts differ: one-shot %d, session %d",
								len(oneShot.Merges), len(viaSession.Merges))
						}
						for i := range oneShot.Merges {
							a, b := oneShot.Merges[i], viaSession.Merges[i]
							if a.F1 != b.F1 || a.F2 != b.F2 || a.Merged != b.Merged || a.Profit != b.Profit {
								t.Errorf("merge %d differs: one-shot %+v, session %+v", i, a, b)
							}
						}
						if a, b := FormatModule(m1), FormatModule(m2); a != b {
							t.Error("session module text diverges from one-shot Optimize")
						}
						if err := VerifyModule(m2); err != nil {
							t.Fatalf("session module does not verify: %v", err)
						}
					})
				}
			}
		}
	}
}

// TestSessionIncrementalWorkflow exercises the full public incremental
// loop: optimize, delete a function, Update, re-optimize — and checks
// the outcome memo kicks in at fixpoint.
func TestSessionIncrementalWorkflow(t *testing.T) {
	m := synthModule(5)
	opt, err := New(WithThreshold(2))
	if err != nil {
		t.Fatal(err)
	}
	s, err := opt.Open(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Optimize(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Drive to fixpoint, then confirm the steady-state run is memo-served.
	for i := 0; i < 5; i++ {
		res, err := s.Optimize(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Merges) == 0 {
			break
		}
	}
	steady, err := s.Optimize(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(steady.Merges) == 0 && steady.Attempts > 0 && steady.OutcomeHits != steady.Attempts {
		t.Errorf("steady state re-planned %d of %d trials", steady.Attempts-steady.OutcomeHits, steady.Attempts)
	}

	// Delete an unreferenced function and report it.
	referenced := map[*Function]bool{}
	for _, f := range m.Funcs {
		f.Instrs(func(in *ir.Instruction) bool {
			for _, op := range in.Operands() {
				if g, ok := op.(*Function); ok {
					referenced[g] = true
				}
			}
			return true
		})
	}
	for _, f := range m.Defined() {
		if !referenced[f] {
			name := f.Name()
			m.RemoveFunc(f)
			if err := s.Update(context.Background(), name); err != nil {
				t.Fatalf("Update of deleted function: %v", err)
			}
			break
		}
	}
	if _, err := s.Optimize(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := VerifyModule(m); err != nil {
		t.Fatalf("module does not verify after incremental loop: %v", err)
	}
}

// TestSessionPlanApplyPublic: the Plan/Apply split through the public
// API, including the JSON round trip a service would ship across a
// process boundary.
func TestSessionPlanApplyPublic(t *testing.T) {
	base := synthModule(7)
	opt, err := New(WithThreshold(2))
	if err != nil {
		t.Fatal(err)
	}

	m := ir.CloneModule(base)
	s, err := opt.Open(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	before := FormatModule(m)
	plan, err := s.Plan(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if FormatModule(m) != before {
		t.Fatal("Plan mutated the module")
	}
	if len(plan.Merges) == 0 {
		t.Skip("no merges proposed on this module")
	}

	blob, err := json.Marshal(plan)
	if err != nil {
		t.Fatal(err)
	}
	var shipped MergePlan
	if err := json.Unmarshal(blob, &shipped); err != nil {
		t.Fatal(err)
	}

	rep, err := s.Apply(context.Background(), &shipped)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Merges) != len(plan.Merges) {
		t.Fatalf("applied %d merges, planned %d", len(rep.Merges), len(plan.Merges))
	}
	for i := range rep.Merges {
		if rep.Merges[i].Merged != plan.Merges[i].Merged {
			t.Errorf("merge %d landed as @%s, plan promised @%s",
				i, rep.Merges[i].Merged, plan.Merges[i].Merged)
		}
	}
	if err := VerifyModule(m); err != nil {
		t.Fatalf("applied module does not verify: %v", err)
	}
}

// TestApplyRefusesExcludedFunctions: a plan drawn up by a session that
// indexes every function must not merge, on a session that excludes one
// of its functions — skip-hot or Removed — what that session's own Plan
// would never propose. Apply refuses with ErrStalePlan and leaves the
// excluded function as it was.
func TestApplyRefusesExcludedFunctions(t *testing.T) {
	ctx := context.Background()
	base := synthModule(7)
	opt, err := New(WithThreshold(2))
	if err != nil {
		t.Fatal(err)
	}
	s, err := opt.Open(ctx, ir.CloneModule(base))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := s.Plan(ctx)
	s.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Merges) == 0 {
		t.Fatal("no merges proposed on this module")
	}
	hot := plan.Merges[0].F1
	hotOpt, err := New(WithThreshold(2), WithSkipHot(hot))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		opt  *Optimizer
		prep func(*Session) error
	}{
		{"skip-hot", hotOpt, func(*Session) error { return nil }},
		{"removed", opt, func(s *Session) error { return s.Remove(ctx, hot) }},
	} {
		m := ir.CloneModule(base)
		before := m.FuncByName(hot).String()
		s, err := c.opt.Open(ctx, m)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.prep(s); err != nil {
			t.Fatal(err)
		}
		rep, err := s.Apply(ctx, plan)
		s.Close()
		if !errors.Is(err, ErrStalePlan) {
			t.Errorf("%s: Apply of a plan merging @%s returned %v, want ErrStalePlan", c.name, hot, err)
		}
		for _, r := range rep.Merges {
			if r.F1 == hot || r.F2 == hot {
				t.Errorf("%s: Apply merged the excluded @%s into @%s", c.name, hot, r.Merged)
			}
		}
		if got := m.FuncByName(hot).String(); got != before {
			t.Errorf("%s: Apply rewrote the excluded @%s", c.name, hot)
		}
	}
}

// TestOpenNilModule: Open validates its module like Optimize does.
func TestOpenNilModule(t *testing.T) {
	opt, err := New()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := opt.Open(context.Background(), nil); err == nil {
		t.Error("Open(nil) should error")
	}
}

// TestProgressRunIDAttribution: concurrent Optimize calls sharing one
// Optimizer must be attributable at the progress callback via RunID —
// the satellite that removes the old WithProgress caveat.
func TestProgressRunIDAttribution(t *testing.T) {
	const runs = 4
	events := map[int64]int{}
	opt, err := New(WithThreshold(2),
		WithProgress(func(ev Progress) {
			// Serialized by WithProgress even across concurrent runs.
			events[ev.RunID]++
		}))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < runs; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			m := synthModule(seed)
			if _, err := opt.Optimize(context.Background(), m); err != nil {
				t.Errorf("seed %d: %v", seed, err)
			}
		}(int64(g + 1))
	}
	wg.Wait()
	if len(events) != runs {
		t.Errorf("events attribute to %d distinct RunIDs, want %d: %v", len(events), runs, events)
	}
	for id, n := range events {
		if id <= 0 {
			t.Errorf("non-positive RunID %d", id)
		}
		if n == 0 {
			t.Errorf("RunID %d has no events", id)
		}
	}
}

// TestMergePairSelf: merging a function with itself is a clear error,
// not a self-referential thunk.
func TestMergePairSelf(t *testing.T) {
	opt, err := New()
	if err != nil {
		t.Fatal(err)
	}
	m := synthModule(3)
	name := m.Defined()[0].Name()
	before := FormatModule(m)
	if _, _, err := opt.MergePair(context.Background(), m, name, name); err == nil {
		t.Fatal("MergePair(f, f) should error")
	}
	if FormatModule(m) != before {
		t.Error("failed self-merge mutated the module")
	}
}
