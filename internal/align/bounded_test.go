package align

import (
	"context"
	"math/rand"
	"testing"
)

// TestBoundedMatchesUnbounded drives the kernel over random sequences
// (up to 90 entries, so most matrices are past bandMinCells and the
// ladder is on) with every floor from 1 past the optimum and checks the
// bounded DP's contract exactly: under the default zero gap penalty it
// returns ErrBelowBound precisely when the unbounded optimum falls below
// the floor, and otherwise reproduces the unbounded result — score, match
// counts and the pair list itself. The unbounded result is the
// Entry/Mergeable specification's (alignReference).
func TestBoundedMatchesUnbounded(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	ctx := context.Background()
	for trial := 0; trial < 40; trial++ {
		ea := randomEntrySeq(rng, rng.Intn(90))
		eb := randomEntrySeq(rng, rng.Intn(90))
		it := NewInterner()
		sa := Seq{Entries: ea, Classes: it.Classes(ea, nil)}
		sb := Seq{Entries: eb, Classes: it.Classes(eb, nil)}
		opts := DefaultOptions()
		ref, err := alignReference(ea, eb, opts)
		if err != nil {
			t.Fatal(err)
		}
		for floor := int32(1); floor <= ref.Score+2; floor++ {
			opts.MinScore = floor
			res, err := AlignSeqsCtx(ctx, sa, sb, opts)
			if err == ErrBelowBound {
				if ref.Score >= floor {
					t.Fatalf("trial %d: floor %d aborted but optimum is %d",
						trial, floor, ref.Score)
				}
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			if ref.Score < floor {
				t.Fatalf("trial %d: floor %d should abort (optimum %d)",
					trial, floor, ref.Score)
			}
			if res.Score != ref.Score || res.Matches != ref.Matches ||
				res.InstrMatches != ref.InstrMatches || len(res.Pairs) != len(ref.Pairs) {
				t.Fatalf("trial %d floor %d: bounded result %d/%d/%d/%d pairs differs from unbounded %d/%d/%d/%d",
					trial, floor,
					res.Score, res.Matches, res.InstrMatches, len(res.Pairs),
					ref.Score, ref.Matches, ref.InstrMatches, len(ref.Pairs))
			}
			for i := range res.Pairs {
				if res.Pairs[i].A != ref.Pairs[i].A || res.Pairs[i].B != ref.Pairs[i].B {
					t.Fatalf("trial %d floor %d: pair %d differs", trial, floor, i)
				}
			}
		}
	}
}

// TestBoundIgnoredUnderGapPenalty: the banded floor relies on free gaps
// (monotone prefix sums), which a non-zero gap penalty breaks — the
// floor must be ignored there, never mis-abort.
func TestBoundIgnoredUnderGapPenalty(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	ctx := context.Background()
	for trial := 0; trial < 20; trial++ {
		ea := randomEntrySeq(rng, 12+rng.Intn(12))
		eb := randomEntrySeq(rng, 12+rng.Intn(12))
		it := NewInterner()
		sa := Seq{Entries: ea, Classes: it.Classes(ea, nil)}
		sb := Seq{Entries: eb, Classes: it.Classes(eb, nil)}
		opts := DefaultOptions()
		opts.GapPenalty = -1
		ref, err := AlignSeqsCtx(ctx, sa, sb, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.MinScore = ref.Score + 100
		res, err := AlignSeqsCtx(ctx, sa, sb, opts)
		if err != nil {
			t.Fatalf("trial %d: floor must be ignored under gap penalty, got %v", trial, err)
		}
		if res.Score != ref.Score {
			t.Fatalf("trial %d: score %d != %d", trial, res.Score, ref.Score)
		}
	}
}
