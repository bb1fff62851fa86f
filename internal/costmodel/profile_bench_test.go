package costmodel

import (
	"slices"
	"testing"

	"repro/internal/align"
	"repro/internal/corpus"
	"repro/internal/ir"
	"repro/internal/transform"
)

var slackSink int

// BenchmarkProfileSlack is what the funnel pays the first time it
// screens a function: one fresh profile's slack term, over the 2k
// corpus in turn (an op is one function; profiles are rebuilt off the
// clock every 2,000 ops so each is settled afresh). DESIGN.md "Planning
// funnel" records it before and after transform.Settled.
func BenchmarkProfileSlack(b *testing.B) {
	fns := corpus.Build(corpus.Config{Funcs: 2000, Seed: 7}).Defined()
	it := align.NewInterner()
	seqs := make([]align.Seq, len(fns))
	for i, f := range fns {
		seqs[i] = align.NewSeq(f, it)
	}
	profiles := make([]*FuncProfile, len(fns))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(fns)
		if k == 0 {
			b.StopTimer()
			for j, f := range fns {
				profiles[j] = NewFuncProfile(f, X86_64, seqs[j])
			}
			b.StartTimer()
		}
		slackSink += profiles[k].Slack()
	}
}

// TestSlackMovesNoStamp: the slack term is a read of its function, the
// clone it simplifies included, so over the 2k corpus it moves neither
// the function's edit counter, nor its CFG stamp, nor a block's stamps.
func TestSlackMovesNoStamp(t *testing.T) {
	stamps := func(f *ir.Function) []uint32 {
		s := []uint32{f.Edits(), f.CFGStamp()}
		for _, b := range f.Blocks {
			s = append(s, b.Stamp(), b.PhiStamp(), b.OperandStamp(), b.UseStamp())
		}
		return s
	}
	it, cloned := align.NewInterner(), 0
	for _, f := range corpus.Build(corpus.Config{Funcs: 2000, Seed: 7}).Defined() {
		p := NewFuncProfile(f, X86_64, align.NewSeq(f, it))
		if !transform.Settled(f) {
			cloned++
		}
		was := stamps(f)
		if p.Slack(); !slices.Equal(stamps(f), was) {
			t.Fatalf("Slack of @%s moved its stamps", f.Name())
		}
	}
	if cloned == 0 {
		t.Error("no function was cloned and simplified")
	}
}
