package search

import (
	"sync"
	"testing"

	"repro/internal/ir"
	"repro/internal/synth"
)

// benchModule is a 2000-function clone-heavy module (the merge-rich,
// production-scale shape candidate discovery must stay fast on),
// generated once and shared by every finder benchmark.
var (
	benchOnce  sync.Once
	benchFuncs []*ir.Function
)

func benchFunctions(b *testing.B) []*ir.Function {
	b.Helper()
	benchOnce.Do(func() {
		m := synth.Generate(synth.Profile{
			Name: "bench2k", Seed: 42, Funcs: 2000,
			MinSize: 6, AvgSize: 40, MaxSize: 220,
			CloneFrac: 0.4, FamilySize: 4, MutRate: 0.06,
			Loops: 0.5, Switches: 0.4,
		})
		benchFuncs = m.Defined()
	})
	return benchFuncs
}

// benchFinder measures candidate discovery end to end: build the index,
// then answer one top-t query per function — the exact work the
// driver's planning stage does before any alignment runs.
func benchFinder(b *testing.B, topT int) {
	funcs := benchFunctions(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fd := newIndex(funcs)
		for _, f := range fd.Order() {
			if got := fd.Candidates(f, topT); len(got) == 0 {
				b.Fatalf("no candidates for @%s", f.Name())
			}
		}
	}
	b.StopTimer()
	fd := newIndex(funcs)
	for _, f := range funcs {
		fd.Candidates(f, topT)
	}
	st := fd.Stats()
	b.ReportMetric(st.AvgScanned(), "scanned/query")
}

// BenchmarkFinderIndex answers one top-5 query per function from the
// Index.
func BenchmarkFinderIndex(b *testing.B) { benchFinder(b, 5) }

// BenchmarkHashFunction is the structural hash alone, one pass over the
// same 2000 functions per iteration.
func BenchmarkHashFunction(b *testing.B) {
	funcs := benchFunctions(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range funcs {
			HashFunction(f)
		}
	}
}

// BenchmarkFinderDupFold measures the duplicate-detection pre-pass
// (stable hashing + family verification) over the same 2000 functions.
func BenchmarkFinderDupFold(b *testing.B) {
	funcs := benchFunctions(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if fams := FamiliesBy(funcs, HashFunction); len(fams) == 0 {
			b.Fatal("no duplicate families in a clone-heavy module")
		}
	}
}
