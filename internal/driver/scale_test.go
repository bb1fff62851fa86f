package driver

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strconv"
	"testing"

	"repro/internal/corpus"
	"repro/internal/costmodel"
	"repro/internal/ir"
)

// scaleFuncs picks the corpus size for the scale differentials: a fast
// tier under -short, the caller's moderate tier for plain `go test
// ./...` (which must stay inside Go's default per-package timeout), and
// whatever SCALE_CORPUS names for the acceptance-criterion run — the
// workflow_dispatch CI job sets SCALE_CORPUS=10000 with an explicit
// -timeout to prove the 10k tier.
func scaleFuncs(t *testing.T, moderate int) int {
	if testing.Short() {
		return 400
	}
	if s := os.Getenv("SCALE_CORPUS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			t.Fatalf("bad SCALE_CORPUS %q", s)
		}
		return n
	}
	return moderate
}

func buildCorpus(t *testing.T, funcs int) *ir.Module {
	t.Helper()
	return corpus.Build(corpus.Config{Funcs: funcs, Seed: 7})
}

func optimizeCorpus(t *testing.T, funcs int, cfg Config) (*ir.Module, *Result) {
	t.Helper()
	m := buildCorpus(t, funcs)
	s, err := OpenSession(context.Background(), m, cfg)
	if err != nil {
		t.Fatalf("OpenSession: %v", err)
	}
	defer s.Close()
	res, err := s.Optimize(context.Background())
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	return m, res
}

// TestPlanCostsWhatOptimizeCosts: the dry run retires what it consumes
// from the finder exactly as a commit does, so twin sessions over the
// 2k corpus must ask the finder the same queries and probe and score the
// same entries whether they Plan or Optimize, and Plan + Apply must
// still land on Optimize's module.
func TestPlanCostsWhatOptimizeCosts(t *testing.T) {
	if testing.Short() {
		t.Skip("wants the 2k corpus")
	}
	ctx := context.Background()
	cfg := Config{
		Algorithm: SalSSA, Threshold: 1, Target: costmodel.X86_64,
		DupFold: true,
	}
	mOpt, opt := optimizeCorpus(t, 2000, cfg)
	mPlan := buildCorpus(t, 2000)
	s, err := OpenSession(ctx, mPlan, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	plan, dry, err := s.PlanReport(ctx)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("finder queries/probed/scanned: Optimize %d/%d/%d, Plan %d/%d/%d",
		opt.Search.Queries, opt.Search.Probed, opt.Search.Scanned,
		dry.Search.Queries, dry.Search.Probed, dry.Search.Scanned)
	type work struct{ Queries, Probed, Scanned int }
	if got, want := (work{dry.Search.Queries, dry.Search.Probed, dry.Search.Scanned}),
		(work{opt.Search.Queries, opt.Search.Probed, opt.Search.Scanned}); got != want {
		t.Errorf("Plan's finder work %+v, Optimize's %+v", got, want)
	}
	if _, err := s.Apply(ctx, plan); err != nil {
		t.Fatal(err)
	}
	if mPlan.String() != mOpt.String() {
		t.Error("Plan + Apply module text diverges from Optimize")
	}
}

// mutateCorpus applies a deterministic delta to m: removes some
// functions, replaces the bodies of others (cloning a donor under the
// victim's name) and adds a few new clones. Both sessions of the batch
// differential apply the identical delta.
func mutateCorpus(t *testing.T, m *ir.Module) (changed, removed []string) {
	t.Helper()
	var names []string
	for _, f := range m.Defined() {
		names = append(names, f.Name())
	}
	if len(names) < 80 {
		t.Fatalf("corpus too small for delta: %d defined", len(names))
	}
	for i := 10; i < 60; i += 10 {
		removed = append(removed, names[i])
	}
	for i := 15; i < 65; i += 10 {
		name := names[i]
		donor := m.FuncByName(names[i+50])
		old := m.FuncByName(name)
		m.RemoveFunc(old)
		c, _ := ir.CloneFunction(donor, name)
		m.AddFunc(c)
		changed = append(changed, name)
	}
	for i := 0; i < 3; i++ {
		donor := m.FuncByName(names[70+i])
		name := fmt.Sprintf("spliced_new_%d", i)
		c, _ := ir.CloneFunction(donor, name)
		m.AddFunc(c)
		changed = append(changed, name)
	}
	return changed, removed
}

// TestUpdateBatchMatchesSequential: one UpdateBatch of n deltas must
// leave the session in the same state as n sequential Update/Remove
// calls — same committed merge set, same module text.
func TestUpdateBatchMatchesSequential(t *testing.T) {
	// The case keeps the name it had when the finder and canonical-view
	// indexing were axes; only the LSH index without canon remains.
	t.Run("lsh", func(t *testing.T) {
		t.Run("canon=false", func(t *testing.T) {
			ctx := context.Background()
			cfg := Config{
				Algorithm: SalSSA, Threshold: 2, Target: costmodel.X86_64,
				DupFold: true,
			}
			run := func(batch bool) (*ir.Module, *Result) {
				m := corpus.Build(corpus.Config{Funcs: 150, Seed: 11})
				s, err := OpenSession(ctx, m, cfg)
				if err != nil {
					t.Fatalf("OpenSession: %v", err)
				}
				defer s.Close()
				if _, err := s.Optimize(ctx); err != nil {
					t.Fatalf("first Optimize: %v", err)
				}
				changed, removed := mutateCorpus(t, m)
				if batch {
					if err := s.UpdateBatch(ctx, changed, removed); err != nil {
						t.Fatalf("UpdateBatch: %v", err)
					}
				} else {
					for _, name := range changed {
						if err := s.Update(ctx, name); err != nil {
							t.Fatalf("Update(%q): %v", name, err)
						}
					}
					for _, name := range removed {
						if err := s.Remove(ctx, name); err != nil {
							t.Fatalf("Remove(%q): %v", name, err)
						}
					}
				}
				res, err := s.Optimize(ctx)
				if err != nil {
					t.Fatalf("second Optimize: %v", err)
				}
				return m, res
			}
			m1, res1 := run(false)
			m2, res2 := run(true)
			if len(res1.Merges) != len(res2.Merges) {
				t.Fatalf("merge count diverged: sequential %d, batch %d", len(res1.Merges), len(res2.Merges))
			}
			for i := range res1.Merges {
				a, b := res1.Merges[i], res2.Merges[i]
				if a.F1 != b.F1 || a.F2 != b.F2 || a.Merged != b.Merged || a.Profit != b.Profit {
					t.Fatalf("merge %d diverged:\nsequential %+v\nbatch      %+v", i, a, b)
				}
			}
			if s1, s2 := m1.String(), m2.String(); s1 != s2 {
				t.Fatalf("module text diverged (sequential %d bytes, batch %d bytes)", len(s1), len(s2))
			}
		})
	})
}

// TestUpdateBatchConflict: a batch naming the same function as both
// updated and removed is incoherent and must be rejected with
// ErrConflictingDelta before any mark lands.
func TestUpdateBatchConflict(t *testing.T) {
	ctx := context.Background()
	m := corpus.Build(corpus.Config{Funcs: 40, Seed: 3})
	s, err := OpenSession(ctx, m, Config{Algorithm: SalSSA, Threshold: 2, Target: costmodel.X86_64})
	if err != nil {
		t.Fatalf("OpenSession: %v", err)
	}
	defer s.Close()
	var name string
	for _, f := range m.Defined() {
		name = f.Name()
		break
	}
	err = s.UpdateBatch(ctx, []string{name}, []string{name})
	if !errors.Is(err, ErrConflictingDelta) {
		t.Fatalf("conflicting batch: got %v, want ErrConflictingDelta", err)
	}
	if len(s.pending) != 0 {
		t.Fatalf("rejected batch left %d pending marks", len(s.pending))
	}
	err = s.UpdateBatch(ctx, []string{"no_such_function"}, nil)
	if !errors.Is(err, ErrUnknownFunction) {
		t.Fatalf("unknown update in batch: got %v, want ErrUnknownFunction", err)
	}
	err = s.UpdateBatch(ctx, nil, []string{"no_such_function"})
	if !errors.Is(err, ErrUnknownFunction) {
		t.Fatalf("unknown remove in batch: got %v, want ErrUnknownFunction", err)
	}
	if len(s.pending) != 0 {
		t.Fatalf("rejected batches left %d pending marks", len(s.pending))
	}
}
