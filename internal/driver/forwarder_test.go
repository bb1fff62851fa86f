package driver

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/ir"
	"repro/internal/irtext"
	"repro/internal/search"
	"repro/internal/synth"
)

// checkNoForwarderListed fails if the session's finder walks or lists a
// forwarding body: no entry of its order and no entry of any
// candidate's list may be one. It returns how many candidates are
// forwarding bodies, which the finder holds out.
func checkNoForwarderListed(t *testing.T, s *Session, when string) (forwarders int) {
	t.Helper()
	for _, f := range s.finder.Order() {
		if ir.Forwardee(f) != nil {
			t.Errorf("%s: the finder walks @%s, a forwarding body", when, f.Name())
		}
	}
	for f := range s.recs.of {
		if ir.Forwardee(f) != nil {
			forwarders++
		}
		for _, g := range s.finder.Candidates(f, s.cfg.Threshold) {
			if ir.Forwardee(g) != nil {
				t.Errorf("%s: the finder lists @%s, a forwarding body, for @%s", when, g.Name(), f.Name())
			}
		}
	}
	return forwarders
}

// TestFinderListsNoForwarder: through twelve rounds of what a build
// service sends a session with duplicate folding on and families of up
// to four — a text delta of mutated-clone redefinitions, UpdateBatch,
// then Optimize, or on odd rounds Plan and Apply — the finder never
// walks or lists a forwarding body: not after the sync, not after the
// Plan that gave back what it retired, not after the committing run.
// The thunks and fold forwarders the runs leave behind keep their
// records (they can still fold) and stay out of every list.
func TestFinderListsNoForwarder(t *testing.T) {
	ctx := context.Background()
	prof := synth.SuiteProfile(160, 5)
	m := synth.Generate(prof)
	cfg := Config{
		Algorithm: SalSSA, Threshold: 3, Target: costmodel.X86_64,
		MaxFamily: 4,
	}
	s := open(t, m, cfg)
	scratch := synth.Generate(prof)
	rng := rand.New(rand.NewSource(3))
	builder := synth.NewBuilder(scratch, rng, prof)
	targets := scratch.Defined()
	order := rng.Perm(len(targets))
	forwarders, folds, flattened := 0, 0, 0
	for round := 0; round < 12; round++ {
		names, err := irtext.ParseInto(m, churnRound(scratch, builder, targets, order, round, 4, prof.MutRate))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.UpdateBatch(ctx, names, nil); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		forwarders = max(forwarders, checkNoForwarderListed(t, s, fmt.Sprintf("round %d after sync", round)))
		var p *Plan
		if round%2 == 1 {
			if p, err = s.Plan(ctx); err != nil {
				t.Fatal(err)
			}
			checkNoForwarderListed(t, s, fmt.Sprintf("round %d after Plan", round))
		}
		res := mustRun(t, s, p)
		folds += len(res.Folds)
		flattened += res.Flattened
		checkNoForwarderListed(t, s, fmt.Sprintf("round %d after the run", round))
		if t.Failed() {
			t.FailNow()
		}
	}
	if forwarders == 0 || folds == 0 || flattened == 0 {
		t.Fatalf("the churn left %d forwarding candidates, folded %d and flattened %d: it exercises nothing", forwarders, folds, flattened)
	}
	t.Logf("up to %d forwarding candidates held out of the finder; %d folds, %d flattens", forwarders, folds, flattened)
}

// TestApplyRefusesForwarder: a forwarding body is a candidate — it can
// still fold — but never a merge partner, so Apply refuses a
// hand-written merge that names a member thunk or a fold forwarder, on
// either side, with ErrStalePlan, and leaves the module as it was.
func TestApplyRefusesForwarder(t *testing.T) {
	ctx := context.Background()
	s, m, fam := familySession(t, 3)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	thunk := m.FuncByName(fam.members[0].name)
	var plain *ir.Function
	for _, f := range s.candidateOrder() {
		if ir.Forwardee(f) == nil && !s.families.isHead(f) {
			plain = f
			break
		}
	}
	if s.recs.of[thunk] == nil || plain == nil {
		t.Fatalf("member thunk @%s indexed %v, plain candidate %v", thunk.Name(), s.recs.of[thunk] != nil, plain)
	}
	// A fold forwarder, built by hand.
	dup := m.AddFunc(ir.NewFunction("dup.of."+plain.Name(), plain.Sig()))
	ir.BuildForwarder(dup, plain, dup.ParamValues())
	if err := s.Update(ctx, dup.Name()); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	text := m.String()
	for _, fwd := range []*ir.Function{thunk, dup} {
		for _, pair := range [][2]*ir.Function{{fwd, plain}, {plain, fwd}} {
			p := &Plan{Merges: []PlannedMerge{{
				F1: pair[0].Name(), F2: pair[1].Name(),
				Hash1: search.HashFunction(pair[0]), Hash2: search.HashFunction(pair[1]),
			}}}
			res, err := s.Apply(ctx, p)
			if !errors.Is(err, ErrStalePlan) {
				t.Fatalf("merge of @%s and @%s: Apply returned %v, want ErrStalePlan", pair[0].Name(), pair[1].Name(), err)
			}
			if len(res.Merges) != 0 || m.String() != text {
				t.Fatalf("merge of @%s and @%s: the refused Apply changed the module", pair[0].Name(), pair[1].Name())
			}
		}
	}
}
