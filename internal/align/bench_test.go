package align

// Alignment-core benchmarks on the 2000-function synth suite (the same
// merge-rich, production-scale shape the finder benchmarks use). The
// acceptance bar of the allocation-free rework: BenchmarkAlignPair must
// run >= 3x faster than BenchmarkAlignPairReference (the retained
// pre-interning implementation in reference_test.go) and report 0
// allocs/op in steady state. CI uploads these as the BENCH_align.json
// trajectory artifact.

import (
	"context"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/ir"
	"repro/internal/synth"
)

var (
	benchOnce  sync.Once
	benchFns   []*ir.Function
	benchPairs [][2]*ir.Function
)

// benchSuite generates the 2000-function suite once and derives the
// trial pairs the driver would align: the two leading members of every
// clone family (the synth generator names members <suite>_tNN_mK), i.e.
// pairs that are similar but not identical — the alignment-heavy part
// of a real run.
func benchSuite(b *testing.B) [][2]*ir.Function {
	b.Helper()
	benchOnce.Do(func() {
		m := synth.Generate(synth.Profile{
			Name: "align2k", Seed: 42, Funcs: 2000,
			MinSize: 6, AvgSize: 40, MaxSize: 220,
			CloneFrac: 0.4, FamilySize: 4, MutRate: 0.06,
			Loops: 0.5, Switches: 0.4,
		})
		benchFns = m.Defined()
		families := map[string][]*ir.Function{}
		for _, f := range benchFns {
			name := f.Name()
			cut := strings.LastIndex(name, "_m")
			if cut < 0 {
				continue
			}
			families[name[:cut]] = append(families[name[:cut]], f)
		}
		keys := make([]string, 0, len(families))
		for k, fam := range families {
			if len(fam) >= 2 {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			fam := families[k]
			sort.Slice(fam, func(i, j int) bool { return fam[i].Name() < fam[j].Name() })
			benchPairs = append(benchPairs, [2]*ir.Function{fam[0], fam[1]})
		}
	})
	if len(benchPairs) < 50 {
		b.Fatalf("suite yielded only %d clone-family pairs", len(benchPairs))
	}
	return benchPairs
}

// BenchmarkAlignPair measures one steady-state candidate-pair alignment
// the way the driver runs it: sequences served by the per-run cache,
// kernel scratch from the pool, the result reused. Steady state is 0
// allocs/op.
func BenchmarkAlignPair(b *testing.B) {
	pairs := benchSuite(b)
	cache := NewCache()
	ctx := context.Background()
	opts := DefaultOptions()
	var res Result
	// Warm the cache and the pools so the timed loop is steady state.
	for _, p := range pairs {
		if err := AlignSeqsInto(ctx, cache.Seq(p[0]), cache.Seq(p[1]), opts, &res); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		if err := AlignSeqsInto(ctx, cache.Seq(p[0]), cache.Seq(p[1]), opts, &res); err != nil {
			b.Fatal(err)
		}
	}
}

// benchClassPair aligns one class-vector pair in steady state and reports
// logical cells per second: (n+1)(m+1) over the time taken, whatever part
// of the matrix the kernel filled.
func benchClassPair(b *testing.B, sa, sb Seq) {
	ctx := context.Background()
	opts := DefaultOptions()
	var res Result
	if err := AlignSeqsInto(ctx, sa, sb, opts, &res); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := AlignSeqsInto(ctx, sa, sb, opts, &res); err != nil {
			b.Fatal(err)
		}
	}
	cells := float64(len(sa.Classes)+1) * float64(len(sb.Classes)+1)
	b.ReportMetric(cells*float64(b.N)/1e6/b.Elapsed().Seconds(), "Mcells/s")
}

// benchClassPairs runs benchClassPair on an n-entry vector against its
// copy at 5% mutation (the clone pairs that hold most of a run's DP
// cells) and against an independent vector of the same length (what most
// candidate pairs are).
func benchClassPairs(b *testing.B, n int) {
	b.Run("similar", func(b *testing.B) {
		sa, sb := mutatedPair(11, n)
		benchClassPair(b, sa, sb)
	})
	b.Run("unrelated", func(b *testing.B) {
		rng := rand.New(rand.NewSource(12))
		benchClassPair(b, classSeq(randomClasses(rng, n, 14)), classSeq(randomClasses(rng, n, 14)))
	})
}

// BenchmarkAlignLarge is the 4,000-entry pair: 16 M logical cells.
func BenchmarkAlignLarge(b *testing.B) { benchClassPairs(b, 4000) }

// BenchmarkAlignMid is a 300-entry pair, the size of most alignments the
// paper's suites make; the probe rungs must not tax the unrelated one.
func BenchmarkAlignMid(b *testing.B) { benchClassPairs(b, 300) }

// BenchmarkAlignPairReference is the pre-optimization baseline on the
// same pairs: per-pair linearization, Mergeable per DP cell, fresh
// matrices, reversed-copy backtrack.
func BenchmarkAlignPairReference(b *testing.B) {
	pairs := benchSuite(b)
	opts := DefaultOptions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		if _, err := alignReference(Linearize(p[0]), Linearize(p[1]), opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClassIntern measures interning the whole 2000-function suite
// from scratch: the one-time per-run cost the cache pays so that every
// subsequent trial compares ints.
func BenchmarkClassIntern(b *testing.B) {
	benchSuite(b)
	seqs := make([][]Entry, len(benchFns))
	for i, f := range benchFns {
		seqs[i] = Linearize(f)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := NewInterner()
		var classes []int32
		for _, seq := range seqs {
			classes = it.Classes(seq, classes[:0])
		}
	}
}
