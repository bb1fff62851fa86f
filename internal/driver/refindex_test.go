package driver

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"sync"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/ir"
	"repro/internal/irtext"
	"repro/internal/synth"
	"repro/internal/transform"
)

// failSkip fails the package on a clean-up pass that skipped a block its
// trigger fires at.
func failSkip(pass string, f *ir.Function, b *ir.Block) {
	panic(fmt.Sprintf("transform: %s skipped a block of @%s its trigger fires at\n%s", pass, f.Name(), f))
}

// naiveExternalCallers is the specification of hasExternalCallers: the
// scan over every instruction operand of the module and of the other
// families' stored records that the per-run reference index replaced.
// An in-flight in-place trial body is in m.Funcs when a check runs, so
// the scan reads it too, which the index does not: the two agree only
// while no trial copies a head reference out of an excused holder.
func naiveExternalCallers(m *ir.Module, families *familySet, fam *family) bool {
	refsHead := func(f *ir.Function) (found bool) {
		f.Instrs(func(in *ir.Instruction) bool {
			for _, op := range in.Operands() {
				found = found || op == ir.Value(fam.head)
			}
			return !found
		})
		return found
	}
	members := map[string]bool{}
	for _, mb := range fam.members {
		members[mb.name] = true
	}
	for _, f := range m.Funcs {
		if f != fam.head && !members[f.Name()] && refsHead(f) {
			return true
		}
	}
	for head, other := range families.byHead {
		for _, mb := range other.members {
			if head != fam.head && slices.Contains(mb.rec.Values(), ir.Value(fam.head)) {
				return true
			}
		}
	}
	return false
}

// callerChecks counts the caller checks the package's tests made and
// collects every one the index answered differently from the scan.
var callerChecks struct {
	sync.Mutex
	n          int
	mismatches []string
}

// TestMain holds the reference index against the naive scan at every
// caller check any test of the package reaches — the family tests, the
// golden grid, the differentials and the storm below alike — and every
// clean-up pass to its due filter (transform.SkipCheck), and poisons
// every body a run releases (ir.ReleaseCheck), so a stale pointer into a
// dead trial reads garbage instead of a recycled live object. Benchmark
// runs go without: they time the index, the passes and the pools, not
// their specifications.
func TestMain(m *testing.M) {
	flag.Parse()
	if flag.Lookup("test.bench").Value.String() != "" {
		os.Exit(m.Run())
	}
	ir.ReleaseCheck = func(*ir.Function) {}
	transform.SkipCheck = failSkip
	callerCheckHook = func(mod *ir.Module, families *familySet, fam *family, got bool) {
		want := naiveExternalCallers(mod, families, fam)
		callerChecks.Lock()
		defer callerChecks.Unlock()
		callerChecks.n++
		if got != want {
			callerChecks.mismatches = append(callerChecks.mismatches,
				fmt.Sprintf("head @%s: index says %v, scan says %v", fam.head.Name(), got, want))
		}
	}
	code := m.Run()
	if n := len(callerChecks.mismatches); n > 0 {
		fmt.Fprintf(os.Stderr, "reference index diverged from the naive scan on %d of %d caller checks; first: %s\n",
			n, callerChecks.n, callerChecks.mismatches[0])
		code = 1
	}
	os.Exit(code)
}

// familySession opens a MaxFamily-4 session over the chain suite, runs
// it once and returns it with one recorded family, or skips.
func familySession(t *testing.T, threshold int) (*Session, *ir.Module, *family) {
	t.Helper()
	for seed := int64(1); seed <= 6; seed++ {
		m := chainModule(t, seed)
		cfg := Config{Algorithm: SalSSA, Threshold: threshold, Target: costmodel.X86_64, MaxFamily: 4}
		s := open(t, m, cfg)
		mustRun(t, s, nil)
		for _, fam := range s.families.byHead {
			return s, m, fam
		}
		s.Close()
	}
	t.Skip("no seed produced a family on the first run")
	return nil, nil, nil
}

// callerOf returns a detached function of head's signature whose body
// is a call of head, the shape of a hand-written caller.
func callerOf(head *ir.Function, name string) *ir.Function {
	f := ir.NewFunction(name, head.Sig())
	ir.BuildForwarder(f, head, f.ParamValues())
	return f
}

// TestCallerCheckStrayLiveCaller: a live function outside the family
// that references the head vetoes flattening, whether it was there when
// the run's index was built or arrived through a mutation point, and
// stops vetoing once it is rewritten or removed.
func TestCallerCheckStrayLiveCaller(t *testing.T) {
	s, m, fam := familySession(t, 3)
	defer func() { s.families.refs = nil }()
	if hasExternalCallers(m, s.families, fam) {
		t.Fatal("fresh family already vetoed")
	}
	// Arrives after the build, reported the way a commit reports it.
	stray := m.AddFunc(callerOf(fam.head, "user.caller"))
	s.markPending(stray)
	if !hasExternalCallers(m, s.families, fam) {
		t.Error("a live caller added during the run did not veto flattening")
	}
	// Rewritten so it no longer calls the head: the veto lifts.
	stray.DetachBody()
	s.markPending(stray)
	if hasExternalCallers(m, s.families, fam) {
		t.Error("a caller rewritten away from the head still vetoes")
	}
	// Present at the next run's build.
	ir.BuildForwarder(stray, fam.head, stray.ParamValues())
	s.families.refs = nil
	if !hasExternalCallers(m, s.families, fam) {
		t.Error("a live caller present at the index build did not veto flattening")
	}
	// A member's name excuses the holder; the head excuses itself.
	stray.SetName("renamed.caller")
	own := *fam
	own.members = append(own.members[:len(own.members):len(own.members)], familyMember{name: "renamed.caller"})
	if hasExternalCallers(m, s.families, &own) {
		t.Error("a holder carrying a member's name was not excused")
	}
	m.RemoveFunc(stray)
	s.markPending(stray)
	if hasExternalCallers(m, s.families, fam) {
		t.Error("a removed caller still vetoes")
	}
}

// TestCallerCheckIndexOncePerSession: the reference index is built once
// per session — not by a cold run with no family to flatten, once by the
// first Plan whose flattens need it, and never again through its Apply
// and twenty churn rounds of UpdateBatch and Optimize — and each run's
// first caller check re-reads only the functions whose edit stamps moved
// since the index last read them (106 through the twenty rounds).
func TestCallerCheckIndexOncePerSession(t *testing.T) {
	ctx := context.Background()
	prof := synth.SuiteProfile(300, 9)
	m := synth.Generate(prof)
	s := open(t, m, Config{Algorithm: SalSSA, Threshold: 1, Target: costmodel.X86_64, MaxFamily: 4})
	mustRun(t, s, nil)
	if s.families.refBuilds != 0 || s.families.refs != nil {
		t.Fatalf("a cold run with no family to flatten built %d reference indexes", s.families.refBuilds)
	}
	plan, err := s.Plan(ctx)
	if err != nil {
		t.Fatal(err)
	}
	flattens := 0
	for _, pm := range plan.Merges {
		if len(pm.Family) > 0 {
			flattens++
		}
	}
	if flattens < 2 {
		t.Fatalf("the plan proposes %d flattens; the test needs several", flattens)
	}
	if s.families.refBuilds != 1 {
		t.Errorf("Plan with %d flattens: %d index builds, want 1", flattens, s.families.refBuilds)
	}
	res := mustRun(t, s, plan)
	if res.Flattened != flattens {
		t.Errorf("Apply flattened %d of the plan's %d", res.Flattened, flattens)
	}
	scratch := synth.Generate(prof)
	rng := rand.New(rand.NewSource(23))
	builder := synth.NewBuilder(scratch, rng, prof)
	targets := scratch.Defined()
	order := rng.Perm(len(targets))
	const rounds, per = 20, 6
	flattened, rereads := 0, s.families.refRereads
	for round := 0; round < rounds; round++ {
		names, err := irtext.ParseInto(m, churnRound(scratch, builder, targets, order, round, per, prof.MutRate))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.UpdateBatch(ctx, names, nil); err != nil {
			t.Fatal(err)
		}
		if res, err = sizedRun(t, s, nil); err != nil {
			t.Fatal(err)
		}
		flattened += res.Flattened
	}
	if s.families.refBuilds != 1 {
		t.Errorf("%d churn rounds: %d index builds in the session, want 1", rounds, s.families.refBuilds)
	}
	// A run's first check re-reads what moved since the index last read
	// it — the redefined functions, and the run's own rewrites after
	// their mutation points — not the module, and not a function a read
	// (a clone, a slack probe) only looked at: the count is pinned.
	rereads = s.families.refRereads - rereads
	if flattened == 0 || rereads != 106 {
		t.Errorf("%d churn rounds flattened %d families and re-read %d functions at their first checks, want 106", rounds, flattened, rereads)
	}
	t.Logf("%d churn rounds: %d flattens, %d functions re-read, %d index build", rounds, flattened, rereads, s.families.refBuilds)
}

// TestCallerCheckUnreportedStrayCaller: a caller of a family head added
// to the module without Update — so that only the index's re-read of
// the module at the next run's first caller check can see it — must
// veto that family's flattening at the next Optimize, and the module
// must verify.
func TestCallerCheckUnreportedStrayCaller(t *testing.T) {
	s, m, fam := familySession(t, 1)
	if hasExternalCallers(m, s.families, fam) {
		t.Fatal("fresh family already vetoed")
	}
	s.finishStats(&Result{}) // that check was a run's
	m.AddFunc(callerOf(fam.head, "user.stray"))
	members := fam.members
	mustRun(t, s, nil)
	if cur := s.families.byHead[fam.head]; cur == nil || len(cur.members) != len(members) || m.FuncByName(fam.head.Name()) != fam.head {
		t.Errorf("the family behind @%s was flattened despite an unreported caller", fam.head.Name())
	}
}

// TestCallerCheckStorm: a seeded storm of redefinitions, renames,
// removals and runs over a suite with families on, at a threshold that
// keeps in-place trial bodies in flight. TestMain's hook holds every
// caller check of it to the naive scan; this test only makes sure the
// storm reached enough of them to mean something.
func TestCallerCheckStorm(t *testing.T) {
	ctx := context.Background()
	callerChecks.Lock()
	before := callerChecks.n
	callerChecks.Unlock()
	prof := synth.SuiteProfile(200, 3)
	m := synth.Generate(prof)
	s := open(t, m, Config{Algorithm: SalSSA, Threshold: 3, Target: costmodel.X86_64, MaxFamily: 4})
	mustRun(t, s, nil)
	scratch := synth.Generate(prof)
	rng := rand.New(rand.NewSource(17))
	builder := synth.NewBuilder(scratch, rng, prof)
	targets := scratch.Defined()
	order := rng.Perm(len(targets))
	flattened := 0
	for round := 0; round < 12; round++ {
		names, err := irtext.ParseInto(m, churnRound(scratch, builder, targets, order, round, 6, prof.MutRate))
		if err != nil {
			t.Fatal(err)
		}
		// A hand-written caller of a generated head, as user code might
		// add one: it must veto that head's flattening for as long as it
		// stands, and only that.
		for head := range s.families.byHead {
			if rng.Intn(4) == 0 && m.FuncByName(head.Name()) == head {
				stray := m.AddFunc(callerOf(head, fmt.Sprintf("user.caller%d", round)))
				names = append(names, stray.Name())
				break
			}
		}
		if err := s.UpdateBatch(ctx, names, nil); err != nil {
			t.Fatal(err)
		}
		var res *Result
		if round%3 == 2 {
			plan, err := s.Plan(ctx)
			if err != nil {
				t.Fatal(err)
			}
			res = mustRun(t, s, plan)
		} else if res, err = sizedRun(t, s, nil); err != nil {
			t.Fatal(err)
		}
		flattened += res.Flattened
	}
	callerChecks.Lock()
	checks := callerChecks.n - before
	callerChecks.Unlock()
	if checks < 50 || flattened == 0 {
		t.Errorf("the storm reached %d caller checks and %d flattens; it no longer exercises the index", checks, flattened)
	}
	t.Logf("%d caller checks held to the scan, %d flattens", checks, flattened)
}
