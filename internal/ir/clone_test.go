package ir_test

import (
	"slices"
	"testing"

	"repro/internal/corpus"
	"repro/internal/ir"
)

// TestCloneFunctionMovesNoStamp: cloning is a read, so over every
// function of the 2,000-function corpus it moves neither the source's
// edit counter, nor its CFG stamp, nor any block's four stamps, and the
// clone prints as its source does.
func TestCloneFunctionMovesNoStamp(t *testing.T) {
	stamps := func(f *ir.Function) []uint32 {
		s := []uint32{f.Edits(), f.CFGStamp()}
		for _, b := range f.Blocks {
			s = append(s, b.Stamp(), b.PhiStamp(), b.OperandStamp(), b.UseStamp())
		}
		return s
	}
	moved := 0
	defined := corpus.Build(corpus.Config{Funcs: 2000, Seed: 5}).Defined()
	for _, f := range defined {
		was := stamps(f)
		c, _ := ir.CloneFunction(f, f.Name())
		if !slices.Equal(stamps(f), was) {
			moved++
		}
		if c.String() != f.String() {
			t.Fatalf("the clone of @%s differs from it", f.Name())
		}
		ir.Release(c)
	}
	if moved > 0 {
		t.Errorf("cloning moved the stamps of %d of %d functions", moved, len(defined))
	}
}
