package driver

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/align"
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
// current candidates: for every candidate, the top-t lists must agree
// element for element. It returns how many non-empty lists it compared.
func checkFinderFresh(t *testing.T, s *Session, when string) int {
	t.Helper()
	cands := s.candidateOrder()
	fresh := search.New(search.KindLSH, cands)
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

// checkRecords holds the session's records to what they describe. The
// finder indexes only functions with a record, and a record's function
// is listed by the finder exactly when it is not a forwarding body
// (ir.Forwardee), less those a committing run retired since the last
// sync (pending, out of the finder, their bodies rewritten); every
// other record's size is what costmodel.FuncBytes measures now, its
// memoized hash what search.HashFunction computes now and its sequence
// the linearization of its body now; a retired function's record keeps
// nothing built from its old body, no memoized pair included, and a
// forwarding body, which no row walks and no list names, takes part in
// no memoized pair. The memo is linked both ways: every entry of a row
// names another live record, once, whose back list names the row, and
// every back entry is matched by one.
func checkRecords(t *testing.T, s *Session, when string) {
	t.Helper()
	inFinder := map[*ir.Function]bool{}
	for _, f := range s.finder.Order() {
		inFinder[f] = true
		if s.recs.of[f] == nil {
			t.Errorf("%s: the finder indexes @%s, which has no record", when, f.Name())
		}
	}
	for f, r := range s.recs.of {
		checkMemo(t, s, r, when)
		if _, pending := s.pending[f]; pending && !inFinder[f] {
			if r.hashed || r.seqOK || r.prof != nil {
				t.Errorf("%s: retired @%s keeps facts built from its old body", when, r.name)
			}
			if len(r.memo)+len(r.back) != 0 {
				t.Errorf("%s: retired @%s keeps %d memo and %d back entries", when, r.name, len(r.memo), len(r.back))
			}
			continue
		}
		switch forwarder := ir.Forwardee(f) != nil; {
		case forwarder && inFinder[f]:
			t.Errorf("%s: the finder lists @%s, a forwarding body", when, r.name)
		case forwarder && len(r.memo)+len(r.back) != 0:
			t.Errorf("%s: forwarding body @%s takes part in %d memo and %d back entries", when, r.name, len(r.memo), len(r.back))
		case !forwarder && !inFinder[f]:
			t.Errorf("%s: @%s has a record but is not indexed", when, r.name)
		}
		if want := costmodel.FuncBytes(f, s.cfg.Target); r.size != want {
			t.Errorf("%s: @%s's record prices it at %d bytes, FuncBytes at %d", when, r.name, r.size, want)
		}
		if r.hashed && r.hash != search.HashFunction(f) {
			t.Errorf("%s: @%s's memoized hash is stale", when, r.name)
		}
		if r.seqOK && !slices.Equal(r.seq.Entries, align.Linearize(f)) {
			t.Errorf("%s: @%s's sequence is not its body's", when, r.name)
		}
	}
}

// checkMemo holds r's memo row and back list to each other's: a
// partner is another live record, named once in r's row, and names r in
// its back list as often; a back entry is a live record whose row names
// r once.
func checkMemo(t *testing.T, s *Session, r *record, when string) {
	t.Helper()
	for _, to := range r.memo {
		switch {
		case to == r:
			t.Errorf("%s: @%s's memo pairs it with itself", when, r.name)
		case s.recs.of[to.fn] != to:
			t.Errorf("%s: @%s's memo names @%s, which has no live record", when, r.name, to.name)
		case countMemo(r, to) != 1 || countBack(to, r) != 1:
			t.Errorf("%s: @%s's memo names @%s %d times, whose back list names it %d times",
				when, r.name, to.name, countMemo(r, to), countBack(to, r))
		}
	}
	for _, b := range r.back {
		if s.recs.of[b.fn] != b || countMemo(b, r) != 1 {
			t.Errorf("%s: @%s's back list names @%s, whose live row does not name it once", when, r.name, b.name)
		}
	}
}

// countMemo counts the entries of r's memo row naming to.
func countMemo(r, to *record) int {
	n := 0
	for _, x := range r.memo {
		if x == to {
			n++
		}
	}
	return n
}

// countBack counts the entries of to's back list naming r.
func countBack(to, r *record) int {
	n := 0
	for _, x := range to.back {
		if x == r {
			n++
		}
	}
	return n
}

// memoHas reports whether s memoizes the directed pair (f1, f2).
func memoHas(s *Session, f1, f2 *ir.Function) bool {
	r1, r2 := s.recs.of[f1], s.recs.of[f2]
	return r1 != nil && r2 != nil && r1.memoized(r2)
}

// memoPut memoizes (f1, f2), whether or not the pair is memoized
// already, as a test seeding the memo needs.
func memoPut(s *Session, f1, f2 *ir.Function) {
	if r1, r2 := s.recs.of[f1], s.recs.of[f2]; !r1.memoized(r2) {
		r1.remember(r2)
	}
}

// TestFinderExactAfterSync: twenty rounds of what a build service sends
// a session — mutated-clone redefinitions, new functions, removals,
// re-admissions, renames — each followed by a sync and an Optimize with
// families on. Every run asks the session's
// finder for its lists, so after every sync that finder must answer
// what a fresh index over the current candidates answers: edited
// fingerprints re-ranked, functions a commit retired mid-walk back in
// the lists they left, removals gone, renamed ties re-ordered by name.
// Odd rounds Plan and Apply instead of Optimizing; after every sync,
// Plan and committing run the records must describe what they say
// (checkRecords). The pairs variant turns families off, so every merge
// is a pair merge that retires two functions and indexes their merge.
func TestFinderExactAfterSync(t *testing.T) {
	type variant struct {
		threshold int
		pairs     bool
	}
	variants := []variant{{1, false}, {3, false}, {8, false}, {3, true}}
	for _, v := range variants {
		name := fmt.Sprintf("t=%d", v.threshold)
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
				MaxFamily: 4,
			}
			if v.pairs {
				cfg.MaxFamily = 0
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
				if f := m.FuncByName(rest[round].Name()); f != nil && s.recs.of[f] != nil {
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
				checkRecords(t, s, fmt.Sprintf("round %d after sync", round))
				if t.Failed() {
					t.FailNow()
				}
				var p *Plan
				if round%2 == 1 {
					if p, err = s.Plan(ctx); err != nil {
						t.Fatal(err)
					}
					checkRecords(t, s, fmt.Sprintf("round %d after Plan", round))
				}
				res, err := sizedRun(t, s, p)
				if err != nil {
					t.Fatal(err)
				}
				checkRecords(t, s, fmt.Sprintf("round %d after the run", round))
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
