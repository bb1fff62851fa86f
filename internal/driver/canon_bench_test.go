package driver

// Canonical-view benchmarks, exported to CI as BENCH_canon.json. Two
// questions matter for the canon PR: what does building views cost on
// top of indexing (BenchmarkCanonViewBuild, amortized once per function
// per session), and what does a canon session buy end to end on the
// mutated-clone suite — folds recovered and bytes saved vs the
// syntactic pipeline (BenchmarkCanonOptimize/off vs /on, whose
// folds and bytes_saved metrics are the PR's acceptance signal).

import (
	"context"
	"testing"

	"repro/internal/canon"
	"repro/internal/costmodel"
	"repro/internal/ir"
	"repro/internal/synth"
)

// canonBenchSuite is the benchmark corpus: clone families whose members
// are exact duplicates hidden behind reducible noise.
func canonBenchSuite() *ir.Module {
	return synth.CanonSuite(200, 29)
}

func BenchmarkCanonViewBuild(b *testing.B) {
	m := canonBenchSuite()
	funcs := m.Defined()
	cfg := canon.Default()
	instrs := 0
	for _, f := range funcs {
		instrs += f.NumInstrs()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range funcs {
			canon.Build(f, cfg)
		}
	}
	b.ReportMetric(float64(len(funcs)), "views/op")
	b.ReportMetric(float64(instrs), "instrs/op")
}

func benchmarkCanonOptimize(b *testing.B, canonOn bool) {
	cfg := Config{
		Algorithm: SalSSA, Threshold: 1, Target: costmodel.X86_64,
		DupFold: true,
	}
	if canonOn {
		cfg.Canon = canon.Default()
	}
	var folds, saved int
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := canonBenchSuite()
		b.StartTimer()
		s, err := OpenSession(context.Background(), m, cfg)
		if err != nil {
			b.Fatal(err)
		}
		res, err := s.Optimize(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		s.Close()
		folds = len(res.Folds)
		saved = res.BaselineBytes - res.FinalBytes
	}
	b.ReportMetric(float64(folds), "folds")
	b.ReportMetric(float64(saved), "bytes_saved")
}

func BenchmarkCanonOptimize(b *testing.B) {
	b.Run("off", func(b *testing.B) { benchmarkCanonOptimize(b, false) })
	b.Run("on", func(b *testing.B) { benchmarkCanonOptimize(b, true) })
}
