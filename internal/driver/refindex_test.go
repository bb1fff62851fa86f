package driver

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/ir"
	"repro/internal/irtext"
	"repro/internal/search"
	"repro/internal/synth"
)

// naiveExternalCallers is the specification of hasExternalCallers: the
// scan over every instruction operand of the module and of the other
// families' stored bodies that the per-run reference index replaced.
// An in-flight in-place trial body is in m.Funcs when a check runs, so
// the scan needs no parameter for it.
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
			if head != fam.head && refsHead(mb.body) {
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
// golden grid, the differentials and the storm below alike. Benchmark
// runs go without: they time the index, not its specification.
func TestMain(m *testing.M) {
	flag.Parse()
	if flag.Lookup("test.bench").Value.String() != "" {
		os.Exit(m.Run())
	}
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
		s, err := OpenSession(context.Background(), m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sizedRun(t, s, nil); err != nil {
			t.Fatal(err)
		}
		for _, fam := range s.families.byHead {
			t.Cleanup(func() { s.Close() })
			return s, m, fam
		}
		s.Close()
	}
	t.Skip("no seed produced a family on the first run")
	return nil, nil, nil
}

// callerOf returns a detached function of head's signature whose body
// is a call of head, the shape of a hand-written caller and of what a
// trial copies out of a member thunk.
func callerOf(head *ir.Function, name string) *ir.Function {
	f := ir.NewFunction(name, head.Sig())
	search.BuildForwarder(f, head)
	return f
}

// TestCallerCheckStrayLiveCaller: a live function outside the family
// that references the head vetoes flattening, whether it was there when
// the run's index was built or arrived through a mutation point, and
// stops vetoing once it is rewritten or removed.
func TestCallerCheckStrayLiveCaller(t *testing.T) {
	s, m, fam := familySession(t, 3)
	defer func() { s.families.refs = nil }()
	if hasExternalCallers(m, s.families, fam, nil) {
		t.Fatal("fresh family already vetoed")
	}
	// Arrives after the build, reported the way a commit reports it.
	stray := m.AddFunc(callerOf(fam.head, "user.caller"))
	s.markPending(stray)
	if !hasExternalCallers(m, s.families, fam, nil) {
		t.Error("a live caller added during the run did not veto flattening")
	}
	// Rewritten so it no longer calls the head: the veto lifts.
	stray.Clear()
	s.markPending(stray)
	if hasExternalCallers(m, s.families, fam, nil) {
		t.Error("a caller rewritten away from the head still vetoes")
	}
	// Present at the next run's build.
	search.BuildForwarder(stray, fam.head)
	s.families.refs = nil
	if !hasExternalCallers(m, s.families, fam, nil) {
		t.Error("a live caller present at the index build did not veto flattening")
	}
	// A member's name excuses the holder; the head excuses itself.
	stray.SetName("renamed.caller")
	own := *fam
	own.members = append(own.members[:len(own.members):len(own.members)], familyMember{name: "renamed.caller"})
	if hasExternalCallers(m, s.families, &own, nil) {
		t.Error("a holder carrying a member's name was not excused")
	}
	m.RemoveFunc(stray)
	s.markPending(stray)
	if hasExternalCallers(m, s.families, fam, nil) {
		t.Error("a removed caller still vetoes")
	}
}

// TestCallerCheckInflightBody: at Threshold > 1 the row's retained
// in-place trial body is in the module when the next candidate's caller
// check runs, and it can hold a head reference copied out of a member
// thunk — excused there by name, not in the copy. The index must see it
// for that check and must not remember it afterwards (a rejected trial
// leaves the module without passing a mutation point), whichever of the
// two came first: the body or the run's index.
func TestCallerCheckInflightBody(t *testing.T) {
	for _, builtFirst := range []bool{false, true} {
		s, m, fam := familySession(t, 3)
		if builtFirst && hasExternalCallers(m, s.families, fam, nil) {
			t.Fatal("fresh family already vetoed")
		}
		body := m.AddFunc(callerOf(fam.head, "merged.x."+fam.members[0].name))
		if !hasExternalCallers(m, s.families, fam, &trial{merged: body}) {
			t.Errorf("index built first %v: the in-flight body's reference did not veto flattening", builtFirst)
		}
		m.RemoveFunc(body) // the trial was rejected
		if hasExternalCallers(m, s.families, fam, nil) {
			t.Errorf("index built first %v: a discarded in-flight body still vetoes", builtFirst)
		}
		s.families.refs = nil
	}
}

// TestCallerCheckIndexOncePerRun: a dry run and an Apply that each
// decide several flattens build the reference index once, and no run
// leaves one behind.
func TestCallerCheckIndexOncePerRun(t *testing.T) {
	ctx := context.Background()
	m := synth.Generate(synth.SuiteProfile(300, 9))
	s, err := OpenSession(ctx, m, Config{
		Algorithm: SalSSA, Threshold: 1, Target: costmodel.X86_64,
		Finder: search.KindLSH, DupFold: true, MaxFamily: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := sizedRun(t, s, nil); err != nil {
		t.Fatal(err)
	}
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
	if s.families.refBuilds != 1 || s.families.refs != nil {
		t.Errorf("Plan with %d flattens: %d index builds (want 1), index kept %v", flattens, s.families.refBuilds, s.families.refs != nil)
	}
	res, err := sizedRun(t, s, plan)
	if err != nil {
		t.Fatal(err)
	}
	if res.Flattened != flattens {
		t.Errorf("Apply flattened %d of the plan's %d", res.Flattened, flattens)
	}
	if s.families.refBuilds != 2 || s.families.refs != nil {
		t.Errorf("Apply with %d flattens: %d index builds since the plan (want 1), index kept %v", flattens, s.families.refBuilds-1, s.families.refs != nil)
	}
	if err := ir.VerifyModule(m); err != nil {
		t.Fatal(err)
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
	s, err := OpenSession(ctx, m, Config{
		Algorithm: SalSSA, Threshold: 3, Target: costmodel.X86_64,
		Finder: search.KindLSH, DupFold: true, MaxFamily: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := sizedRun(t, s, nil); err != nil {
		t.Fatal(err)
	}
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
			res, err = sizedRun(t, s, plan)
			if err != nil {
				t.Fatal(err)
			}
		} else if res, err = sizedRun(t, s, nil); err != nil {
			t.Fatal(err)
		}
		flattened += res.Flattened
	}
	if err := ir.VerifyModule(m); err != nil {
		t.Fatalf("module does not verify after the storm: %v", err)
	}
	callerChecks.Lock()
	checks := callerChecks.n - before
	callerChecks.Unlock()
	if checks < 50 || flattened == 0 {
		t.Errorf("the storm reached %d caller checks and %d flattens; it no longer exercises the index", checks, flattened)
	}
	t.Logf("%d caller checks held to the scan, %d flattens", checks, flattened)
}
