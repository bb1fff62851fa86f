package driver

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/canon"
	"repro/internal/costmodel"
	"repro/internal/ir"
	"repro/internal/irtext"
	"repro/internal/search"
	"repro/internal/synth"
)

// funcNames renders a candidate list for a failure message.
func funcNames(fs []*ir.Function) []string {
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = f.Name()
	}
	return out
}

// checkFinderFresh holds the session's finder to a fresh index over the
// current candidates, built through a fresh lens when canon is on: for
// every candidate, the top-t lists must agree element for element. It
// returns how many non-empty lists it compared.
func checkFinderFresh(t *testing.T, s *Session, when string) int {
	t.Helper()
	cands := s.candidateOrder()
	var view search.BodySource
	if lens := canon.NewLens(s.cfg.Canon, search.HashFunction); lens != nil {
		view = lens
	}
	fresh := search.NewIndexed(cands, view)
	compared := 0
	for _, f := range cands {
		got, want := s.finder.Candidates(f, s.cfg.Threshold), fresh.Candidates(f, s.cfg.Threshold)
		if !slices.Equal(got, want) {
			t.Errorf("%s: the session's finder lists %v for @%s, a fresh index %v",
				when, funcNames(got), f.Name(), funcNames(want))
		}
		if len(want) > 0 {
			compared++
		}
	}
	return compared
}

// TestFinderExactAfterSync: twenty rounds of what a build service sends
// a session — mutated-clone redefinitions, new functions, removals,
// re-admissions, renames — each followed by a sync and an Optimize with
// duplicate folding and families on. Every run asks the session's
// finder for its lists, so after every sync that finder must answer
// what a fresh index over the current candidates answers: edited
// fingerprints re-ranked, functions a commit retired mid-walk back in
// the lists they left, removals gone, renamed ties re-ordered by name.
// The pairs variant turns folding and families off, so every commit is
// a pair merge that retires two functions and indexes their merge.
func TestFinderExactAfterSync(t *testing.T) {
	type variant struct {
		threshold int
		canon     bool
		pairs     bool
	}
	variants := []variant{
		{1, false, false}, {3, false, false}, {8, false, false},
		{3, true, false}, {3, false, true},
	}
	for _, v := range variants {
		name := fmt.Sprintf("t=%d/canon=%v", v.threshold, v.canon)
		if v.pairs {
			name += "/pairs"
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			ctx := context.Background()
			prof := synth.SuiteProfile(160, 5)
			m := synth.Generate(prof)
			cfg := Config{
				Algorithm: SalSSA, Threshold: v.threshold, Target: costmodel.X86_64,
				DupFold: true, MaxFamily: 4,
			}
			if v.pairs {
				cfg.DupFold, cfg.MaxFamily = false, 0
			}
			if v.canon {
				cfg.Canon = canon.Default()
			}
			s, err := OpenSession(ctx, m, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if _, err := sizedRun(t, s, nil); err != nil {
				t.Fatal(err)
			}

			scratch := synth.Generate(prof)
			rng := rand.New(rand.NewSource(int64(v.threshold)))
			builder := synth.NewBuilder(scratch, rng, prof)
			// The first half of the suite is redefined, the second half
			// renamed, removed and re-admitted, so a fragment never names
			// a function another edit moved.
			targets := scratch.Defined()
			edits, rest := targets[:len(targets)/2], targets[len(targets)/2:]
			order := rng.Perm(len(edits))
			var sidelined []string
			compared, merged := 0, 0
			for round := 0; round < 20; round++ {
				frag := churnRound(scratch, builder, edits, order, round, 4, prof.MutRate)
				names, err := irtext.ParseInto(m, frag)
				if err != nil {
					t.Fatal(err)
				}
				// A brand-new function: a mutated clone under a new name.
				fresh := builder.Clone(edits[order[round]], fmt.Sprintf("fresh%d", round), prof.MutRate)
				scratch.RemoveFunc(fresh)
				added, err := irtext.ParseInto(m, fresh.String())
				if err != nil {
					t.Fatal(err)
				}
				names = append(names, added...)
				// Re-admit what the last round sidelined, sideline another
				// (it stays defined; Remove only takes it out of play), and
				// rename a third.
				names = append(names, sidelined...)
				sidelined = nil
				if f := m.FuncByName(rest[round].Name()); f != nil && s.indexed[f] {
					sidelined = append(sidelined, f.Name())
				}
				if f := m.FuncByName(rest[20+round].Name()); f != nil {
					// Alternate the direction so the rename moves the
					// function both ways through the name order of its ties.
					name := "a." + f.Name()
					if round%2 == 1 {
						name = f.Name() + ".z"
					}
					f.SetName(name)
					names = append(names, name)
				}
				if err := s.UpdateBatch(ctx, names, sidelined); err != nil {
					t.Fatal(err)
				}
				if err := s.Flush(); err != nil {
					t.Fatal(err)
				}
				compared += checkFinderFresh(t, s, fmt.Sprintf("round %d after sync", round))
				if t.Failed() {
					t.FailNow()
				}
				res, err := sizedRun(t, s, nil)
				if err != nil {
					t.Fatal(err)
				}
				merged += len(res.Merges) + len(res.Folds)
			}
			if err := ir.VerifyModule(m); err != nil {
				t.Fatalf("module does not verify after the churn: %v", err)
			}
			// Vacuity guards: the runs retired functions for the syncs to
			// bring back, and the syncs left lists to compare.
			if merged == 0 {
				t.Error("no run committed a merge or fold over 20 rounds")
			}
			if n := len(s.candidateOrder()); compared < 20*n/2 {
				t.Errorf("only %d non-empty lists were compared over 20 syncs of ~%d candidates", compared, n)
			}
			t.Logf("%d lists compared, %d merges and folds committed", compared, merged)
		})
	}
}
