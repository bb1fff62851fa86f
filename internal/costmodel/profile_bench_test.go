package costmodel

import (
	"testing"

	"repro/internal/align"
	"repro/internal/corpus"
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
