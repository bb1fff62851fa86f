package driver

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/corpus"
	"repro/internal/costmodel"
	"repro/internal/fingerprint"
	"repro/internal/ir"
	"repro/internal/irtext"
	"repro/internal/search"
	"repro/internal/synth"
)

// sizeRuleFamilies is what the fold step found before it asked the
// finder: every candidate whose record size another candidate shares
// went through FamiliesBy. It also returns how many did.
func sizeRuleFamilies(s *Session, candidates []*ir.Function) ([][]*ir.Function, int) {
	bySize := map[int]int{}
	for _, f := range candidates {
		bySize[s.recs.of[f].size]++
	}
	var shared []*ir.Function
	for _, f := range candidates {
		if bySize[s.recs.of[f].size] > 1 {
			shared = append(shared, f)
		}
	}
	return search.FamiliesBy(shared, s.recs.hash), len(shared)
}

// checkFoldFamilies brings s's indexes up to date, as a run does first,
// and holds the fold step's families over the current candidates to
// the size rule's, member for member and in order. It logs how many
// candidates each hashed and returns the fold step's count and how many
// families it found.
func checkFoldFamilies(t *testing.T, s *Session, when string) (hashed, families int) {
	t.Helper()
	s.sync()
	candidates := s.candidateOrder()
	r := s.newRunner(&Result{})
	got := r.foldFamilies(candidates)
	want, bySize := sizeRuleFamilies(s, candidates)
	if testing.Verbose() {
		t.Logf("%s: %d of %d candidates hashed (%d by size), %d families", when, r.res.FoldHashed, len(candidates), bySize, len(got))
	}
	if len(got) != len(want) {
		t.Fatalf("%s: the fold step found %d families, the size rule %d", when, len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s: family %d is %v, the size rule's %v", when, i, funcNames(got[i]), funcNames(want[i]))
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("%s: family %d is %v, the size rule's %v", when, i, funcNames(got[i]), funcNames(want[i]))
			}
		}
	}
	return r.res.FoldHashed, len(got)
}

// TestFoldFamiliesMatchSizeBuckets: the fold step hashes only the
// candidates the finder says share a fingerprint (and forwarding bodies
// of a shared size), yet finds exactly the families it found when it
// hashed every candidate whose size another one shares — over every
// profile of the three paper suites before and, unless -short, after a
// run (the run leaves thunks and fold forwarders among the candidates),
// the 2k
// corpus (where it also pins how many candidates are hashed), a
// tiny-function corpus, twelve rounds of session churn with thunks and
// fold forwarders, and the 2k corpus again with the finder's cell hash
// forced to collide.
func TestFoldFamiliesMatchSizeBuckets(t *testing.T) {
	ctx := context.Background()
	cfg := Config{Algorithm: SalSSA, Threshold: 1, Target: costmodel.X86_64, MaxFamily: 4}
	t.Run("suites", func(t *testing.T) {
		hashed, candidates, families := 0, 0, 0
		for _, suite := range [][]synth.Profile{synth.SPEC2006(), synth.SPEC2017(), synth.MiBench()} {
			for _, p := range suite {
				s := open(t, synth.Generate(p), cfg)
				h, n := checkFoldFamilies(t, s, p.Name)
				hashed, families = hashed+h, families+n
				candidates += len(s.candidateOrder())
				if testing.Short() {
					continue
				}
				mustRun(t, s, nil)
				checkFoldFamilies(t, s, p.Name+" after a run")
			}
		}
		t.Logf("%d of %d candidates hashed, %d families", hashed, candidates, families)
	})

	t.Run("corpus2k", func(t *testing.T) {
		const wantHashed = 734
		s := open(t, corpus.Build(corpus.Config{Funcs: 2000, Seed: 5}), cfg)
		if hashed, _ := checkFoldFamilies(t, s, "corpus2k"); hashed != wantHashed {
			t.Errorf("the fold step hashed %d candidates, want %d", hashed, wantHashed)
		}
	})

	t.Run("tiny", func(t *testing.T) {
		s := open(t, corpus.Build(corpus.Config{Funcs: 2000, Seed: 7,
			CloneFrac: 1e-9, LibDupFrac: 1e-9, AvgSize: 8, MaxSize: 14}), cfg)
		checkFoldFamilies(t, s, "tiny")
	})

	t.Run("churn", func(t *testing.T) {
		prof := synth.SuiteProfile(160, 5)
		m := synth.Generate(prof)
		s := open(t, m, cfg)
		scratch := synth.Generate(prof)
		rng := rand.New(rand.NewSource(3))
		builder := synth.NewBuilder(scratch, rng, prof)
		targets := scratch.Defined()
		order := rng.Perm(len(targets))
		forwarders := 0
		for round := 0; round < 12; round++ {
			names, err := irtext.ParseInto(m, churnRound(scratch, builder, targets, order, round, 4, prof.MutRate))
			if err != nil {
				t.Fatal(err)
			}
			if err := s.UpdateBatch(ctx, names, nil); err != nil {
				t.Fatal(err)
			}
			checkFoldFamilies(t, s, fmt.Sprintf("round %d", round))
			for _, f := range s.candidateOrder() {
				if ir.Forwardee(f) != nil {
					forwarders++
				}
			}
			var p *Plan
			if round%2 == 1 {
				if p, err = s.Plan(ctx); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := sizedRun(t, s, p); err != nil {
				t.Fatal(err)
			}
		}
		if forwarders == 0 {
			t.Fatal("the churn left no forwarding candidate: it exercises nothing")
		}
		t.Logf("%d forwarding candidates over 12 rounds", forwarders)
	})

	t.Run("collision", func(t *testing.T) {
		defer func(h func(*fingerprint.Fingerprint) uint64) { search.CellHash = h }(search.CellHash)
		search.CellHash = func(fp *fingerprint.Fingerprint) uint64 { return uint64(fp.Size % 3) }
		s := open(t, corpus.Build(corpus.Config{Funcs: 2000, Seed: 5}), cfg)
		checkFoldFamilies(t, s, "collision")
	})
}
