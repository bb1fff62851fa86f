package driver

import (
	"context"
	"errors"
	"fmt"
	"os"
	"reflect"
	"strconv"
	"sync/atomic"
	"testing"

	"repro/internal/canon"
	"repro/internal/corpus"
	"repro/internal/costmodel"
	"repro/internal/ir"
	"repro/internal/search"
)

// scaleFuncs picks the corpus size for the scale differentials: a fast
// tier under -short, the caller's moderate tier for plain `go test
// ./...` (which must stay inside Go's default per-package timeout), and
// whatever SCALE_CORPUS names for the acceptance-criterion run — the
// workflow_dispatch CI job sets SCALE_CORPUS=10000 with an explicit
// -timeout to prove the 10k tier under -race.
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

// schedRun is what one cell of the scheduler differential produced:
// the final module text, a per-round log — merge and fold records for
// committing rounds, plan JSON for dry ones — and the last round's
// report.
type schedRun struct {
	text string
	log  []string
	res  *Result
}

// runScheduled drives one session over the n-function corpus for
// rounds rounds, each either one Optimize or a Plan followed by Apply
// of the unfiltered plan.
func runScheduled(t *testing.T, n int, cfg Config, rounds int, viaPlan bool) schedRun {
	t.Helper()
	ctx := context.Background()
	m := buildCorpus(t, n)
	s, err := OpenSession(ctx, m, cfg)
	if err != nil {
		t.Fatalf("OpenSession: %v", err)
	}
	defer s.Close()
	var out schedRun
	for i := 0; i < rounds; i++ {
		if viaPlan {
			before := m.String()
			plan, err := s.Plan(ctx)
			if err != nil {
				t.Fatalf("round %d: Plan: %v", i, err)
			}
			if m.String() != before {
				t.Fatalf("round %d: Plan mutated the module", i)
			}
			out.log = append(out.log, planJSON(t, plan))
			if out.res, err = s.Apply(ctx, plan); err != nil {
				t.Fatalf("round %d: Apply: %v", i, err)
			}
		} else {
			if out.res, err = s.Optimize(ctx); err != nil {
				t.Fatalf("round %d: Optimize: %v", i, err)
			}
			out.log = append(out.log, fmt.Sprintf("%+v\n%+v", out.res.Merges, out.res.Folds))
		}
	}
	if err := ir.VerifyModule(m); err != nil {
		t.Fatalf("module does not verify: %v", err)
	}
	out.text = m.String()
	return out
}

// TestComponentWalkMatchesSerial is the scheduler differential: at any
// worker count the loop must produce the serial loop's module text,
// merge and fold records and plan JSON, whatever else is configured —
// both finders, commit filters, family flattening across two rounds —
// and whether it commits (Optimize) or proposes (Plan, then Apply).
// Plan followed by Apply must also land on Optimize's module. The
// family cells run at a fifth of the corpus: the package's TestMain
// re-derives every caller check of theirs by a scan of the module.
func TestComponentWalkMatchesSerial(t *testing.T) {
	oddOnly := func(i int) bool { return i%2 == 1 }
	for _, finder := range []search.Kind{search.KindExact, search.KindLSH} {
		t.Run(fmt.Sprint(finder), func(t *testing.T) {
			for _, filter := range []func(int) bool{nil, oddOnly} {
				for _, maxFamily := range []int{2, 4} {
					t.Run(fmt.Sprintf("filter=%v/family=%d", filter != nil, maxFamily), func(t *testing.T) {
						t.Parallel()
						cfg := Config{
							Algorithm: SalSSA, Threshold: 2, Target: costmodel.X86_64,
							Finder: finder, DupFold: true, MaxFamily: maxFamily, CommitFilter: filter,
						}
						n, rounds := scaleFuncs(t, 1000), 1
						if maxFamily > 2 {
							n, rounds = max(n/5, 200), 2 // families flatten from the second round on
						}
						var serial [2]schedRun
						for _, workers := range []int{1, 2, 4} {
							cfg.Parallelism = workers
							for op, viaPlan := range []bool{false, true} {
								got := runScheduled(t, n, cfg, rounds, viaPlan)
								engaged := got.res.Components >= 2 && got.res.Transplanted > 0
								if workers == 1 {
									serial[op] = got
									if engaged || got.res.Repaired > 0 {
										t.Errorf("serial run reports scheduler stats: %+v", got.res)
									}
									continue
								}
								if !viaPlan && !engaged {
									t.Errorf("workers=%d: captured %d components, transplanted %d rows",
										workers, got.res.Components, got.res.Transplanted)
								}
								want := serial[op]
								for i := range want.log {
									if got.log[i] != want.log[i] {
										t.Fatalf("workers=%d plan=%v: round %d records diverged from serial:\n%s\nwant\n%s",
											workers, viaPlan, i, got.log[i], want.log[i])
									}
								}
								if got.text != want.text {
									t.Fatalf("workers=%d plan=%v: module text diverged from serial (%d vs %d bytes)",
										workers, viaPlan, len(got.text), len(want.text))
								}
								if !viaPlan && workers == 4 {
									t.Logf("funcs=%d merges=%d flattened=%d components=%d transplanted=%d repaired=%d", n,
										len(got.res.Merges), got.res.Flattened, got.res.Components, got.res.Transplanted, got.res.Repaired)
								}
							}
						}
						if serial[0].text != serial[1].text {
							t.Errorf("Plan+Apply module text diverges from Optimize (%d vs %d bytes)",
								len(serial[1].text), len(serial[0].text))
						}
						if maxFamily > 2 && filter == nil && serial[0].res.Flattened == 0 {
							t.Error("second round flattened nothing: the family cells no longer reach flattenFor")
						}
					})
				}
			}
		})
	}
}

// countdownCtx reports cancellation from its n-th Err poll on; every
// cancellation point of the pipeline polls Err.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestComponentWalkCancel pins the scheduler's cancellation contract: a
// cancellation during capture aborts before anything commits (capture
// is pure, so the module is untouched), one during the loop keeps the
// committed prefix — the serial run's prefix.
func TestComponentWalkCancel(t *testing.T) {
	n := scaleFuncs(t, 1000)
	cfg := Config{Algorithm: SalSSA, Threshold: 2, Target: costmodel.X86_64, Finder: search.KindLSH, Parallelism: 2}
	_, full := optimizeCorpus(t, n, cfg)

	t.Run("capture", func(t *testing.T) {
		m := buildCorpus(t, n)
		before := m.String()
		s, err := OpenSession(context.Background(), m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		// Optimize polls once, the partition once per candidate; a few
		// polls later the capture workers are mid-row.
		ctx := &countdownCtx{Context: context.Background()}
		ctx.left.Store(int64(1 + len(s.finder.Order()) + 3))
		res, err := s.Optimize(ctx)
		if err != context.Canceled {
			t.Fatalf("want context.Canceled, got %v", err)
		}
		if res.Components < 2 {
			t.Fatalf("cancelled before capture started (%d components)", res.Components)
		}
		if len(res.Merges) != 0 || res.Transplanted != 0 || res.Repaired != 0 {
			t.Errorf("cancelled capture reached the loop: %d merges, %d transplanted, %d repaired",
				len(res.Merges), res.Transplanted, res.Repaired)
		}
		if m.String() != before {
			t.Error("cancelled capture changed the module")
		}
	})

	t.Run("replay", func(t *testing.T) {
		const keep = 3
		if len(full.Merges) <= keep {
			t.Skipf("need > %d merges, got %d", keep, len(full.Merges))
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		ccfg := cfg
		ccfg.Progress = func(ev Progress) {
			if ev.Done == keep {
				cancel()
			}
		}
		m := buildCorpus(t, n)
		s, err := OpenSession(ctx, m, ccfg)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		res, err := s.Optimize(ctx)
		if err != context.Canceled {
			t.Fatalf("want context.Canceled, got %v", err)
		}
		if res.Transplanted+res.Repaired == 0 {
			t.Error("cancelled run never replayed a captured row")
		}
		if got, want := mergeSet(res), mergeSet(full)[:keep]; !reflect.DeepEqual(got, want) {
			t.Errorf("committed prefix differs from the serial prefix:\n got %v\nwant %v", got, want)
		}
		if err := ir.VerifyModule(m); err != nil {
			t.Fatalf("cancelled run left a broken module: %v", err)
		}
	})
}

// TestPlanCostsWhatOptimizeCosts: the dry run's tombstone overlay must
// widen its finder queries by what it needs, not by every tombstone the
// run has accumulated — after duplicate folding and a few hundred
// merges that is a whole-module query per row. Twin sessions over the
// 2k corpus: Plan may score at most 8x the finder entries Optimize
// does (44x before the overlay probed geometrically; 3.8x after), and
// Plan + Apply must still land on Optimize's module.
func TestPlanCostsWhatOptimizeCosts(t *testing.T) {
	if testing.Short() {
		t.Skip("wants the 2k corpus")
	}
	ctx := context.Background()
	cfg := Config{
		Algorithm: SalSSA, Threshold: 1, Target: costmodel.X86_64,
		Finder: search.KindLSH, DupFold: true,
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
	t.Logf("finder entries scored: Optimize %d, Plan %d (%.1fx)", opt.Search.Scanned, dry.Search.Scanned,
		float64(dry.Search.Scanned)/float64(opt.Search.Scanned))
	if dry.Search.Scanned > 8*opt.Search.Scanned {
		t.Errorf("Plan scored %d finder entries, Optimize %d: more than 8x", dry.Search.Scanned, opt.Search.Scanned)
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
// calls — same committed merge set, same module text — across both
// finders and with canonicalization on and off.
func TestUpdateBatchMatchesSequential(t *testing.T) {
	ctx := context.Background()
	for _, finder := range []search.Kind{search.KindExact, search.KindLSH} {
		for _, canonOn := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/canon=%v", finder, canonOn), func(t *testing.T) {
				cfg := Config{
					Algorithm: SalSSA, Threshold: 2, Target: costmodel.X86_64,
					Finder: finder, DupFold: true,
				}
				if canonOn {
					cfg.Canon = canon.Default()
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
		}
	}
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
