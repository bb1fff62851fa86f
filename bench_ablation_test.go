package repro

// Ablation benchmarks for the design choices DESIGN.md calls out: each
// benchmark runs the whole-module pipeline on the same clone-heavy
// module with one feature toggled, logging the reduction so the
// contribution of each mechanism is visible in `go test -bench=Ablation`.

import (
	"testing"

	"repro/internal/costmodel"
	"repro/internal/driver"
	"repro/internal/ir"
	"repro/internal/synth"
)

var ablationBase = func() *ir.Module {
	return synth.Generate(synth.Profile{
		Name: "ablate", Seed: 31, Funcs: 60,
		MinSize: 10, AvgSize: 65, MaxSize: 240,
		CloneFrac: 0.6, FamilySize: 2, MutRate: 0.05,
		Loops: 0.7, Switches: 0.5,
	})
}()

func runAblation(b *testing.B, cfg driver.Config) {
	b.Helper()
	var last *driver.Result
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := ir.CloneModule(ablationBase)
		b.StartTimer()
		last = driver.Run(m, cfg)
	}
	b.ReportMetric(last.Reduction(), "%reduction")
	b.ReportMetric(float64(len(last.Merges)), "merges")
	b.ReportMetric(float64(last.PeakMatrixBytes)/1024, "KiB-peak")
}

// BenchmarkAblationSalSSA is the full configuration (reference point).
func BenchmarkAblationSalSSA(b *testing.B) {
	runAblation(b, driver.Config{Algorithm: driver.SalSSA, Threshold: 1, Target: costmodel.X86_64})
}

// BenchmarkAblationNoPhiCoalescing disables §4.4 (SalSSA-NoPC).
func BenchmarkAblationNoPhiCoalescing(b *testing.B) {
	runAblation(b, driver.Config{Algorithm: driver.SalSSANoPC, Threshold: 1, Target: costmodel.X86_64})
}

// BenchmarkAblationFMSA is the demotion-based baseline.
func BenchmarkAblationFMSA(b *testing.B) {
	runAblation(b, driver.Config{Algorithm: driver.FMSA, Threshold: 1, Target: costmodel.X86_64})
}

// BenchmarkAblationLinearAlign swaps in Hirschberg linear-space
// alignment (same reductions, tiny peak memory, roughly double the
// alignment time).
func BenchmarkAblationLinearAlign(b *testing.B) {
	runAblation(b, driver.Config{Algorithm: driver.SalSSA, Threshold: 1, Target: costmodel.X86_64,
		LinearAlign: true})
}

// BenchmarkAblationThreshold5 raises the exploration threshold.
func BenchmarkAblationThreshold5(b *testing.B) {
	runAblation(b, driver.Config{Algorithm: driver.SalSSA, Threshold: 5, Target: costmodel.X86_64})
}

// BenchmarkAblationSkipHot excludes the hottest tenth of functions from
// merging (the paper's §5.7 profile-guided remedy for runtime overhead).
func BenchmarkAblationSkipHot(b *testing.B) {
	hot := map[string]bool{}
	count := 0
	for _, f := range ablationBase.Defined() {
		if count%10 == 0 {
			hot[f.Name()] = true
		}
		count++
	}
	runAblation(b, driver.Config{Algorithm: driver.SalSSA, Threshold: 1, Target: costmodel.X86_64,
		SkipHot: hot})
}
