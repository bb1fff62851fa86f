package canon_test

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/canon"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/search"
	"repro/internal/synth"
)

// sameRuns interp-compares two functions across a handful of seeds.
func sameRuns(t *testing.T, a, b *ir.Function, label string) {
	t.Helper()
	proto := interp.NewEnv()
	for seed := int64(1); seed <= 5; seed++ {
		oa := interp.Run(proto, a, interp.ArgsFor(a, seed))
		ob := interp.Run(proto, b, interp.ArgsFor(b, seed))
		if same, why := interp.SameBehavior(oa, ob); !same {
			t.Fatalf("%s: behavior differs at seed %d: %s", label, seed, why)
		}
	}
}

// TestViewPreservesBehavior: the canonical view of every suite function
// is a valid function with the original's observable behavior.
func TestViewPreservesBehavior(t *testing.T) {
	m := synth.CanonSuite(40, 7)
	if err := ir.VerifyModule(m); err != nil {
		t.Fatalf("noised suite does not verify: %v", err)
	}
	for _, f := range m.Defined() {
		view := canon.Build(f, canon.Default())
		if err := ir.VerifyFunction(view); err != nil {
			t.Fatalf("view of %s does not verify: %v", f.Name(), err)
		}
		sameRuns(t, f, view, "view of "+f.Name())
	}
}

// TestBuildDeterministic: building the view twice yields structurally
// identical functions with equal hashes.
func TestBuildDeterministic(t *testing.T) {
	m := synth.CanonSuite(24, 11)
	for _, f := range m.Defined() {
		v1 := canon.Build(f, canon.Default())
		v2 := canon.Build(f, canon.Default())
		if search.HashFunction(v1) != search.HashFunction(v2) {
			t.Fatalf("%s: view hash not deterministic", f.Name())
		}
		if !search.EqualFunctions(v1, v2) {
			t.Fatalf("%s: views not structurally equal across builds", f.Name())
		}
	}
}

// TestViewLeavesOriginalUntouched: building a view must not perturb the
// original body's structural hash.
func TestViewLeavesOriginalUntouched(t *testing.T) {
	m := synth.CanonSuite(24, 5)
	for _, f := range m.Defined() {
		before := search.HashFunction(f)
		canon.Build(f, canon.Default())
		if search.HashFunction(f) != before {
			t.Fatalf("%s: original body changed by Build", f.Name())
		}
	}
}

// families groups suite functions by clone-family name prefix
// ("canon_tNN_"); the CanonSuite generator names family members
// canon_tNN_mK.
func families(m *ir.Module) map[string][]*ir.Function {
	fams := make(map[string][]*ir.Function)
	for _, f := range m.Defined() {
		name := f.Name()
		i := strings.LastIndex(name, "_m")
		if i < 0 || !strings.Contains(name, "_t") {
			continue
		}
		fams[name[:i]] = append(fams[name[:i]], f)
	}
	for _, fs := range fams {
		sort.Slice(fs, func(i, j int) bool { return fs[i].Name() < fs[j].Name() })
	}
	return fams
}

// TestNoisedClonesConverge is the recall property the whole subsystem
// exists for: exact clones hidden behind independent semantics-preserving
// noise diverge structurally as originals but their canonical views
// converge — equal hashes, structurally equal bodies.
func TestNoisedClonesConverge(t *testing.T) {
	m := synth.CanonSuite(60, 3)
	fams := families(m)
	if len(fams) == 0 {
		t.Fatal("suite generated no clone families")
	}
	converged, diverged := 0, 0
	for name, fs := range fams {
		if len(fs) < 2 {
			continue
		}
		rep := fs[0]
		repView := canon.Build(rep, canon.Default())
		for _, f := range fs[1:] {
			// The noise must actually have hidden the duplicate from the
			// syntactic hash for the family to be interesting; most are.
			view := canon.Build(f, canon.Default())
			if search.HashFunction(repView) != search.HashFunction(view) {
				diverged++
				t.Logf("family %s: views of %s and %s hash apart", name, rep.Name(), f.Name())
				continue
			}
			if !search.EqualFunctions(repView, view) {
				t.Fatalf("family %s: views hash equal but are not structurally equal (%s vs %s)",
					name, rep.Name(), f.Name())
			}
			converged++
		}
	}
	if converged == 0 {
		t.Fatal("no noised clone pair converged under canonicalization")
	}
	if diverged > converged {
		t.Fatalf("canonicalization recovered too little: %d converged, %d diverged", converged, diverged)
	}
	t.Logf("converged %d pairs, diverged %d", converged, diverged)
}

// TestNoiseHidesDuplicates double-checks the suite construction: the
// noise makes family members hash apart syntactically (otherwise the
// canon-on/off recall comparison measures nothing).
func TestNoiseHidesDuplicates(t *testing.T) {
	m := synth.CanonSuite(60, 3)
	hidden, exposed := 0, 0
	for _, fs := range families(m) {
		for _, f := range fs[1:] {
			if search.HashFunction(fs[0]) == search.HashFunction(f) {
				exposed++
			} else {
				hidden++
			}
		}
	}
	if hidden == 0 {
		t.Fatal("noise hid no duplicates; the recall suite is vacuous")
	}
	t.Logf("hidden %d, still-exposed %d", hidden, exposed)
}

// TestReduceErasesDuplicatedPure: a hand-built function with a
// re-materialized add folds to a single add under Reduce.
func TestReduceErasesDuplicatedPure(t *testing.T) {
	m := synth.CanonSuite(16, 21)
	total := 0
	for _, f := range m.Defined() {
		view, _ := ir.CloneFunction(f, f.Name())
		total += canon.Reduce(view)
		if err := ir.VerifyFunction(view); err != nil {
			t.Fatalf("Reduce broke %s: %v", f.Name(), err)
		}
	}
	if total == 0 {
		t.Fatal("Reduce erased nothing across the noised suite")
	}
}
