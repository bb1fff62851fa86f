package driver

import (
	"context"
	"errors"
	"testing"

	"repro/internal/corpus"
	"repro/internal/costmodel"
)

// TestPlanCostsWhatOptimizeCosts: the dry run retires what it consumes
// from the finder exactly as a commit does, so twin sessions over the
// 2k corpus must ask the finder the same queries and probe and score the
// same entries whether they Plan or Optimize, and Plan + Apply must
// still land on Optimize's module.
func TestPlanCostsWhatOptimizeCosts(t *testing.T) {
	t.Parallel()
	corpusCell(2000, 7, Config{Algorithm: SalSSA, Threshold: 1, Target: costmodel.X86_64}, planApply).run(t)
}

// TestUpdateBatchMatchesSequential: one UpdateBatch of n deltas must
// leave the session in the same state as n sequential Update/Remove
// calls — same committed merge set, same module text.
func TestUpdateBatchMatchesSequential(t *testing.T) {
	// The case keeps the name it had when the finder and canonical-view
	// indexing were axes; only the LSH index without canon remains.
	t.Run("lsh", func(t *testing.T) {
		t.Run("canon=false", func(t *testing.T) {
			corpusCell(150, 11, sessionCfg, batch).run(t)
		})
	})
}

// TestUpdateBatchConflict: a batch naming the same function as both
// updated and removed is incoherent and must be rejected with
// ErrConflictingDelta before any mark lands.
func TestUpdateBatchConflict(t *testing.T) {
	ctx := context.Background()
	m := corpus.Build(corpus.Config{Funcs: 40, Seed: 3})
	s := open(t, m, Config{Algorithm: SalSSA, Threshold: 2, Target: costmodel.X86_64})
	name := m.Defined()[0].Name()
	err := s.UpdateBatch(ctx, []string{name}, []string{name})
	if !errors.Is(err, ErrConflictingDelta) {
		t.Fatalf("conflicting batch: got %v, want ErrConflictingDelta", err)
	}
	if len(s.pending) != 0 {
		t.Fatalf("rejected batch left %d pending marks", len(s.pending))
	}
	err = s.UpdateBatch(ctx, []string{"no_such_function"}, nil)
	if !errors.Is(err, ErrUnknownFunction) {
		t.Fatalf("unknown update in batch: got %v, want ErrUnknownFunction", err)
	}
	err = s.UpdateBatch(ctx, nil, []string{"no_such_function"})
	if !errors.Is(err, ErrUnknownFunction) {
		t.Fatalf("unknown remove in batch: got %v, want ErrUnknownFunction", err)
	}
	if len(s.pending) != 0 {
		t.Fatalf("rejected batches left %d pending marks", len(s.pending))
	}
}
