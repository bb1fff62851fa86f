package driver

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/ir"
	"repro/internal/irtext"
	"repro/internal/synth"
)

// churnSession drives a build-service session over a suite: a cold
// Optimize, then rounds of text deltas through UpdateBatch, each
// followed by a Plan and its Apply every third round and an Optimize
// otherwise. Threshold 3 keeps in-place trial bodies in flight across a
// row; families of up to four flatten. after, when non-nil, sees the
// session after every run. It returns one digest per run — the merge
// and fold records, then the module text.
func churnSession(seed int64, rounds int, after func(s *Session, res *Result)) (digests []string, err error) {
	ctx := context.Background()
	prof := synth.SuiteProfile(200, seed)
	m := synth.Generate(prof)
	s, err := OpenSession(ctx, m, Config{
		Algorithm: SalSSA, Threshold: 3, Target: costmodel.X86_64,
		MaxFamily: 4,
	})
	if err != nil {
		return nil, err
	}
	defer s.Close()
	record := func(res *Result) {
		var sb strings.Builder
		for _, rec := range res.Merges {
			fmt.Fprintf(&sb, "merge %s %s %s %v %d\n", rec.F1, rec.F2, rec.Merged, rec.Family, rec.Profit)
		}
		for _, fr := range res.Folds {
			fmt.Fprintf(&sb, "fold %s %s %d\n", fr.Dup, fr.Rep, fr.Profit)
		}
		sb.WriteString(m.String())
		digests = append(digests, sb.String())
		if after != nil {
			after(s, res)
		}
	}
	res, err := s.Optimize(ctx)
	if err != nil {
		return nil, err
	}
	record(res)
	scratch := synth.Generate(prof)
	rng := rand.New(rand.NewSource(seed))
	builder := synth.NewBuilder(scratch, rng, prof)
	targets := scratch.Defined()
	order := rng.Perm(len(targets))
	for round := 0; round < rounds; round++ {
		names, err := irtext.ParseInto(m, churnRound(scratch, builder, targets, order, round, 6, prof.MutRate))
		if err != nil {
			return nil, err
		}
		if err := s.UpdateBatch(ctx, names, nil); err != nil {
			return nil, err
		}
		if round%3 == 2 {
			plan, err := s.Plan(ctx)
			if err != nil {
				return nil, err
			}
			res, err = s.Apply(ctx, plan)
		} else {
			res, err = s.Optimize(ctx)
		}
		if err != nil {
			return nil, err
		}
		record(res)
	}
	if err := ir.VerifyModule(m); err != nil {
		return nil, fmt.Errorf("module does not verify after the churn: %w", err)
	}
	return digests, nil
}

// TestReleasedBodiesUnreachable: every body a run releases — the pair
// and flatten trials it does not commit (all of a Plan's, winners
// included), built in place and discarded, and the heads a flatten
// consumes — is dead when it is released. Under the package's poison hook, twenty churn rounds of
// Optimize, Plan/Apply and flattening record every released block and
// instruction, and after each run no live function and no body the
// family registry keeps reaches one: not as a block or instruction, an
// operand or a user.
func TestReleasedBodiesUnreachable(t *testing.T) {
	dead := map[any]bool{}
	saved := ir.ReleaseCheck
	ir.ReleaseCheck = func(f *ir.Function) {
		saved(f)
		for _, b := range f.Blocks {
			dead[b] = true
			for _, in := range b.Instrs() {
				dead[in] = true
			}
		}
	}
	defer func() { ir.ReleaseCheck = saved }()

	runs, flattened := 0, 0
	reach := func(what string, f *ir.Function, v any) {
		if dead[v] {
			t.Errorf("run %d: @%s reaches a released object (%s)", runs, f.Name(), what)
		}
	}
	uses := func(f *ir.Function, v ir.Value) {
		for _, u := range ir.UsesOf(v) {
			reach("a user", f, u.User)
		}
	}
	check := func(f *ir.Function) {
		for _, p := range f.Params() {
			uses(f, p)
		}
		for _, b := range f.Blocks {
			reach("a block", f, b)
			uses(f, b)
			for _, in := range b.Instrs() {
				reach("an instruction", f, in)
				uses(f, in)
				for _, op := range in.Operands() {
					reach("an operand", f, op)
				}
			}
		}
	}
	_, err := churnSession(5, 20, func(s *Session, res *Result) {
		for _, f := range s.m.Funcs {
			check(f)
		}
		for head, fam := range s.families.byHead {
			check(head)
			for _, mb := range fam.members {
				if mb.body.IsDecl() {
					t.Errorf("run %d: the stored body of @%s was released", runs, mb.name)
				}
				check(mb.body)
			}
		}
		runs++
		flattened += res.Flattened
	})
	if err != nil {
		t.Fatal(err)
	}
	bodies := 0
	for v := range dead {
		if _, ok := v.(*ir.Block); ok {
			bodies++
		}
	}
	t.Logf("%d runs, %d flattens; %d blocks and %d instructions released", runs, flattened, bodies, len(dead)-bodies)
	if flattened == 0 || bodies == 0 {
		t.Errorf("the churn flattened %d families and released %d blocks; it no longer exercises release", flattened, bodies)
	}
}

// TestReleaseConcurrentSessions: two sessions churning on two goroutines
// at once share the body pools — with pooling on, as in production —
// and each must come out exactly as it does run alone.
func TestReleaseConcurrentSessions(t *testing.T) {
	saved := ir.ReleaseCheck
	ir.ReleaseCheck = nil
	defer func() { ir.ReleaseCheck = saved }()
	const rounds = 8
	seeds := []int64{5, 6}
	serial := make([][]string, len(seeds))
	for i, seed := range seeds {
		d, err := churnSession(seed, rounds, nil)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = d
	}
	concurrent := make([][]string, len(seeds))
	errs := make([]error, len(seeds))
	var wg sync.WaitGroup
	for i, seed := range seeds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			concurrent[i], errs[i] = churnSession(seed, rounds, nil)
		}()
	}
	wg.Wait()
	for i, seed := range seeds {
		if errs[i] != nil {
			t.Fatalf("seed %d: %v", seed, errs[i])
		}
		if len(concurrent[i]) != len(serial[i]) {
			t.Fatalf("seed %d: %d runs concurrently, %d alone", seed, len(concurrent[i]), len(serial[i]))
		}
		for run := range serial[i] {
			if concurrent[i][run] != serial[i][run] {
				t.Errorf("seed %d, run %d: the session's output differs when another session runs beside it", seed, run)
			}
		}
	}
}

// TestRunCountsAllocation: a run reports the bytes it allocated and the
// collector's CPU time, the part of those bytes its built trials
// allocated and the part of that its discarded trials did — process-wide
// deltas over nested windows, so each bounds the next.
func TestRunCountsAllocation(t *testing.T) {
	res := Run(synth.Generate(synth.SuiteProfile(200, 4)), Config{Algorithm: SalSSA, Threshold: 3, Target: costmodel.X86_64})
	t.Logf("%d trials built: %d bytes allocated, %d by trials, %d by discarded trials; GC %v",
		res.TrialsBuilt, res.AllocBytes, res.TrialAllocBytes, res.DiscardedTrialAllocBytes, res.GCTime)
	if res.TrialsBuilt <= len(res.Merges) {
		t.Fatalf("%d trials built for %d merges; the run discards none", res.TrialsBuilt, len(res.Merges))
	}
	if res.DiscardedTrialAllocBytes <= 0 || res.DiscardedTrialAllocBytes > res.TrialAllocBytes ||
		res.TrialAllocBytes > res.AllocBytes || res.GCTime < 0 {
		t.Errorf("allocation counters out of order: run %d >= trials %d >= discarded %d > 0, GC %v >= 0",
			res.AllocBytes, res.TrialAllocBytes, res.DiscardedTrialAllocBytes, res.GCTime)
	}
}
