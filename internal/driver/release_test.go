package driver

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/costmodel"
	"repro/internal/ir"
	"repro/internal/irtext"
	"repro/internal/synth"
)

// churnSession drives a build-service session over a suite: a cold
// Optimize, then rounds of text deltas through UpdateBatch, each
// followed by a Plan and its Apply every third round and an Optimize
// otherwise. Threshold 3 keeps in-place trial bodies in flight across a
// row; families of up to maxFamily members flatten (none at 2). after,
// when non-nil, sees the session after every run. It returns one digest
// per run — the merge and fold records, then the module text.
func churnSession(seed int64, rounds, maxFamily int, after func(s *Session, res *Result)) (digests []string, err error) {
	ctx := context.Background()
	prof := synth.SuiteProfile(200, seed)
	m := synth.Generate(prof)
	s, err := OpenSession(ctx, m, Config{
		Algorithm: SalSSA, Threshold: 3, Target: costmodel.X86_64,
		MaxFamily: maxFamily,
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

// releaseWatch records, under the package's poison hook, every block
// and instruction released while it is installed, and how many of the
// bodies were replaced in a function a module holds (a fold forwarder,
// a merge thunk or a redefinition) rather than discarded whole.
type releaseWatch struct {
	t        *testing.T
	dead     map[any]bool
	replaced int
}

func watchReleases(t *testing.T) *releaseWatch {
	w := &releaseWatch{t: t, dead: map[any]bool{}}
	saved := ir.ReleaseCheck
	ir.ReleaseCheck = func(f *ir.Function) {
		saved(f)
		if f.Parent() != nil && !f.IsDecl() {
			w.replaced++
		}
		for _, b := range f.Blocks {
			w.dead[b] = true
			for _, in := range b.Instrs() {
				w.dead[in] = true
			}
		}
	}
	t.Cleanup(func() { ir.ReleaseCheck = saved })
	return w
}

// check fails the test if anything the session holds reaches a released
// block or instruction: a module function, a family head or a body the
// registry keeps (as a block, instruction, operand or user), a record's
// sequence, a function the reference index or the finder names. A
// record's numbering is integers only, built with its sequence, so the
// sequence answers for both.
func (w *releaseWatch) check(s *Session, when string) {
	t := w.t
	t.Helper()
	reach := func(what string, f *ir.Function, v any) {
		if w.dead[v] {
			t.Errorf("%s: @%s reaches a released object (%s)", when, f.Name(), what)
		}
	}
	uses := func(f *ir.Function, v ir.Value) {
		for _, u := range ir.UsesOf(v) {
			reach("a user", f, u.User)
		}
	}
	body := func(f *ir.Function) {
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
	for _, f := range s.m.Funcs {
		body(f)
	}
	var fams familySet // a session without family tracking has neither
	if s.families != nil {
		fams = *s.families
	}
	for head, fam := range fams.byHead {
		body(head)
		for _, mb := range fam.members {
			if mb.body.IsDecl() {
				t.Errorf("%s: the stored body of @%s was released", when, mb.name)
			}
			body(mb.body)
		}
	}
	for f, r := range s.recs.of {
		for _, e := range r.seq.Entries {
			if w.dead[e.Label] || w.dead[e.Instr] {
				t.Errorf("%s: the record of @%s holds a released object in its sequence", when, f.Name())
				break
			}
		}
	}
	if x := fams.refs; x != nil {
		for target, holders := range x.holders {
			body(target)
			for holder := range holders {
				body(holder)
			}
		}
		for holder := range x.stamps {
			body(holder)
		}
	}
	for _, f := range s.finder.Order() {
		body(f)
	}
}

// released reports how many blocks and instructions the watch saw die.
func (w *releaseWatch) released() (blocks, instrs int) {
	for v := range w.dead {
		if _, ok := v.(*ir.Block); ok {
			blocks++
		}
	}
	return blocks, len(w.dead) - blocks
}

// TestReleasedBodiesUnreachable: every body a run or a delta releases is
// dead when it is released — the pair and flatten trials a run does not
// commit (all of a Plan's, winners included), built in place and
// discarded; the heads a flatten consumes; the body a fold forwarder or
// an untracked merge thunk replaces; the body a textual redefinition
// replaces. Under the package's poison hook each case records every
// released block and instruction, and after each run (and, for the
// redefinitions, right after the delta is reported) nothing the session
// holds reaches one (releaseWatch.check).
func TestReleasedBodiesUnreachable(t *testing.T) {
	ctx := context.Background()
	// Twenty churn rounds of Optimize, Plan/Apply and flattening, every
	// round redefining six bodies in place.
	t.Run("families", func(t *testing.T) {
		w := watchReleases(t)
		runs, flattened := 0, 0
		_, err := churnSession(5, 20, 4, func(s *Session, res *Result) {
			w.check(s, fmt.Sprintf("run %d", runs))
			runs++
			flattened += res.Flattened
		})
		if err != nil {
			t.Fatal(err)
		}
		blocks, instrs := w.released()
		t.Logf("%d runs, %d flattens; %d blocks and %d instructions released, %d bodies replaced", runs, flattened, blocks, instrs, w.replaced)
		if flattened == 0 || blocks == 0 || w.replaced == 0 {
			t.Errorf("the churn flattened %d families, released %d blocks and replaced %d bodies; it no longer exercises release", flattened, blocks, w.replaced)
		}
	})
	// Pairwise merges only: every member's body is thunked away, and no
	// registry keeps it.
	t.Run("untracked", func(t *testing.T) {
		w := watchReleases(t)
		runs, merges := 0, 0
		_, err := churnSession(6, 8, 2, func(s *Session, res *Result) {
			if s.families != nil {
				t.Fatal("a MaxFamily 2 session tracks families")
			}
			w.check(s, fmt.Sprintf("run %d", runs))
			runs++
			merges += len(res.Merges)
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%d runs, %d merges; %d bodies replaced", runs, merges, w.replaced)
		if merges == 0 || w.replaced < 2*merges {
			t.Errorf("%d merges replaced %d bodies; each replaces two", merges, w.replaced)
		}
	})
	// A corpus of clone families and library duplicates, where most of
	// what a run releases is folded duplicates; then two rounds that
	// redefine functions as copies of others, which the next run folds.
	t.Run("folds", func(t *testing.T) {
		w := watchReleases(t)
		m := corpus.Build(corpus.Config{Funcs: 600, Seed: 7})
		s := open(t, m, Config{Algorithm: SalSSA, Threshold: 1, Target: costmodel.X86_64, MaxFamily: 4})
		res := mustRun(t, s, nil)
		folds := len(res.Folds)
		w.check(s, "the cold run")
		for round := 0; round < 2; round++ {
			names, text := copyDeltas(s, 8, round)
			if _, err := irtext.ParseInto(m, text); err != nil {
				t.Fatal(err)
			}
			if err := s.UpdateBatch(ctx, names, nil); err != nil {
				t.Fatal(err)
			}
			res = mustRun(t, s, nil)
			folds += len(res.Folds)
			w.check(s, fmt.Sprintf("round %d", round))
		}
		t.Logf("%d folds; %d bodies replaced", folds, w.replaced)
		if folds < 20 || w.replaced < folds {
			t.Errorf("%d folds replaced %d bodies; the corpus no longer folds much", folds, w.replaced)
		}
	})
	// Every family head and member thunk, every forwarder and a few
	// plain candidates redefined in place by their own text, reported,
	// and checked before the next run syncs.
	t.Run("redefinitions", func(t *testing.T) {
		w := watchReleases(t)
		m := synth.Generate(synth.SuiteProfile(200, 5))
		s := open(t, m, Config{Algorithm: SalSSA, Threshold: 3, Target: costmodel.X86_64, MaxFamily: 4})
		mustRun(t, s, nil)
		var names []string
		var sb strings.Builder
		plain := 0
		for _, f := range m.Defined() {
			kind := s.families.isHead(f) || ir.Forwardee(f) != nil
			if !kind && s.recs.of[f] != nil && plain < 10 {
				kind = true
				plain++
			}
			if kind {
				names = append(names, f.Name())
				sb.WriteString(f.String())
				sb.WriteString("\n")
			}
		}
		w.replaced = 0
		if _, err := irtext.ParseInto(m, sb.String()); err != nil {
			t.Fatal(err)
		}
		if w.replaced != len(names) {
			t.Errorf("%d redefinitions replaced %d bodies", len(names), w.replaced)
		}
		if err := s.UpdateBatch(ctx, names, nil); err != nil {
			t.Fatal(err)
		}
		w.check(s, "after UpdateBatch")
		mustRun(t, s, nil)
		w.check(s, "after the next run")
		t.Logf("%d functions redefined (%d plain)", len(names), plain)
	})
}

// copyDeltas returns n redefinitions, each a candidate's body copied
// from another candidate of the same signature: duplicates the next run
// folds. round picks a different slice of the candidates each time.
func copyDeltas(s *Session, n, round int) ([]string, string) {
	cands := s.candidateOrder()
	var names []string
	var sb strings.Builder
	used := map[*ir.Function]bool{}
	for i := round * 7 % len(cands); i < len(cands) && len(names) < n; i += 3 {
		dst := cands[i]
		if used[dst] {
			continue
		}
		for _, src := range cands {
			if src != dst && !used[src] && ir.TypesEqual(src.Sig(), dst.Sig()) && src.NumInstrs() > 8 {
				cp, _ := ir.CloneFunction(src, dst.Name())
				names = append(names, dst.Name())
				sb.WriteString(cp.String())
				sb.WriteString("\n")
				used[dst], used[src] = true, true
				break
			}
		}
	}
	return names, sb.String()
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
		d, err := churnSession(seed, rounds, 4, nil)
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
			concurrent[i], errs[i] = churnSession(seed, rounds, 4, nil)
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
