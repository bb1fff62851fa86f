package repro

// One benchmark per table and figure of the paper's evaluation, plus
// micro-benchmarks of the merging core. The figure benchmarks share one
// lab (and thus one set of generated modules and cached merge runs), so
// `go test -bench=.` regenerates the full evaluation exactly once.
//
// The figure benchmarks default to quarter-size suites so a full
// `go test -bench=.` completes in minutes; set REPRO_BENCH_SCALE=1 for
// the full-size suites (`go run ./cmd/repro all` always runs at full
// scale).

import (
	"os"
	"strconv"
	"sync"
	"testing"

	"repro/internal/align"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/driver"
	"repro/internal/experiments"
	"repro/internal/ir"
	"repro/internal/irtext"
	"repro/internal/synth"
	"repro/internal/transform"
)

var (
	labOnce sync.Once
	lab     *experiments.Lab
)

func sharedLab() *experiments.Lab {
	labOnce.Do(func() {
		lab = experiments.NewLab()
		lab.Scale = 4
		if s, err := strconv.Atoi(os.Getenv("REPRO_BENCH_SCALE")); err == nil && s >= 1 {
			lab.Scale = s
		}
	})
	return lab
}

func benchFigure(b *testing.B, id string) {
	l := sharedLab()
	for i := 0; i < b.N; i++ {
		table, ok := l.ByID(id)
		if !ok || len(table.Rows) == 0 {
			b.Fatalf("experiment %s produced no rows", id)
		}
		if i == 0 {
			b.Log("\n" + table.String())
		}
	}
}

// BenchmarkFig5RegDemotionGrowth regenerates Figure 5 (normalized
// function size after register demotion; paper GMean 1.73x).
func BenchmarkFig5RegDemotionGrowth(b *testing.B) { benchFigure(b, "fig5") }

// BenchmarkFig17aSpec2006Reduction regenerates Figure 17a (paper GMeans:
// FMSA 3.8-3.9%, SalSSA 9.3-9.7%).
func BenchmarkFig17aSpec2006Reduction(b *testing.B) { benchFigure(b, "fig17a") }

// BenchmarkFig17bSpec2017Reduction regenerates Figure 17b (paper GMeans:
// FMSA 4.1-4.4%, SalSSA 7.9-9.2%).
func BenchmarkFig17bSpec2017Reduction(b *testing.B) { benchFigure(b, "fig17b") }

// BenchmarkFig18MiBenchReduction regenerates Figure 18 (paper GMeans:
// residue 0.1%, FMSA 0.8%, SalSSA 1.4-1.6%; ARM Thumb).
func BenchmarkFig18MiBenchReduction(b *testing.B) { benchFigure(b, "fig18") }

// BenchmarkTable1MiBenchMerges regenerates Table 1 (per-program function
// statistics and merge counts at t=1).
func BenchmarkTable1MiBenchMerges(b *testing.B) { benchFigure(b, "table1") }

// BenchmarkFig19DjpegBreakdown regenerates Figure 19 (per-merge size
// contribution on djpeg; cost-model false positives appear as negative
// contributions).
func BenchmarkFig19DjpegBreakdown(b *testing.B) { benchFigure(b, "fig19") }

// BenchmarkFig20PhiCoalescing regenerates Figure 20 (FMSA vs SalSSA-NoPC
// vs SalSSA; paper GMeans 3.8 / 8.1 / 9.3).
func BenchmarkFig20PhiCoalescing(b *testing.B) { benchFigure(b, "fig20") }

// BenchmarkFig21ProfitableMerges regenerates Figure 21 (total profitable
// merges; paper: SalSSA +31% over FMSA).
func BenchmarkFig21ProfitableMerges(b *testing.B) { benchFigure(b, "fig21") }

// BenchmarkFig22PeakMemory regenerates Figure 22 (peak alignment-matrix
// memory; paper: >2x less for SalSSA, 2.7x on 403.gcc).
func BenchmarkFig22PeakMemory(b *testing.B) { benchFigure(b, "fig22") }

// BenchmarkFig23PhaseSpeedup regenerates Figure 23 (alignment/codegen
// speedup of SalSSA over FMSA; paper GMeans 3.16x / 1.68x).
func BenchmarkFig23PhaseSpeedup(b *testing.B) { benchFigure(b, "fig23") }

// BenchmarkFig24CompileTime regenerates Figure 24 (normalized end-to-end
// compile time; paper GMeans: FMSA 1.14-1.66, SalSSA 1.05-1.18).
func BenchmarkFig24CompileTime(b *testing.B) { benchFigure(b, "fig24") }

// BenchmarkFig25RuntimeOverhead regenerates Figure 25 (normalized
// dynamic-instruction runtime; paper GMeans: FMSA ~1.02, SalSSA ~1.04).
func BenchmarkFig25RuntimeOverhead(b *testing.B) { benchFigure(b, "fig25") }

// --- Micro-benchmarks of the merging core ---

func benchPair(b *testing.B) (*ir.Module, *ir.Function, *ir.Function) {
	b.Helper()
	m := synth.Generate(synth.Profile{
		Name: "bench", Seed: 99, Funcs: 2,
		MinSize: 120, AvgSize: 120, MaxSize: 120,
		CloneFrac: 1.0, FamilySize: 2, MutRate: 0.05, Loops: 0.6,
	})
	return m, m.FuncByName("bench_t00_m0"), m.FuncByName("bench_t00_m1")
}

// BenchmarkAlignment measures the Needleman-Wunsch core on a ~120
// instruction pair.
func BenchmarkAlignment(b *testing.B) {
	_, f1, f2 := benchPair(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := align.AlignFunctions(f1, f2, align.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSalSSACodegen measures the SalSSA code generator (alignment
// excluded).
func BenchmarkSalSSACodegen(b *testing.B) {
	m, f1, f2 := benchPair(b)
	res, err := align.AlignFunctions(f1, f2, align.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		merged, _, err := core.MergeAlignedCtx(b.Context(), m, f1, f2, "m", res, core.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		m.RemoveFunc(merged)
	}
}

// BenchmarkRegToMem measures register demotion (FMSA's preprocessing).
func BenchmarkRegToMem(b *testing.B) {
	_, f1, _ := benchPair(b)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		clone, _ := ir.CloneFunction(f1, "c")
		b.StartTimer()
		transform.RegToMem(clone)
	}
}

// BenchmarkMem2Reg measures register promotion (SSA construction).
func BenchmarkMem2Reg(b *testing.B) {
	_, f1, _ := benchPair(b)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		clone, _ := ir.CloneFunction(f1, "c")
		transform.RegToMem(clone)
		b.StartTimer()
		transform.Mem2Reg(clone)
	}
}

// pipelineModule is the shared input of the whole-module pipeline
// benchmarks.
func pipelineModule() *ir.Module {
	return synth.Generate(synth.Profile{
		Name: "pipe", Seed: 3, Funcs: 60,
		MinSize: 8, AvgSize: 50, MaxSize: 200,
		CloneFrac: 0.4, FamilySize: 2, MutRate: 0.05, Loops: 0.5,
	})
}

// BenchmarkModulePipeline measures the full driver, duplicate folding
// included, on a mid-size module.
func BenchmarkModulePipeline(b *testing.B) {
	base := pipelineModule()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := ir.CloneModule(base)
		b.StartTimer()
		driver.Run(m, driver.Config{Algorithm: driver.SalSSA, Threshold: 1, Target: costmodel.X86_64})
	}
}

// BenchmarkParsePrint round-trips the textual IR.
func BenchmarkParsePrint(b *testing.B) {
	src := irtext.Fig2Module
	for i := 0; i < b.N; i++ {
		m, err := irtext.Parse(src)
		if err != nil {
			b.Fatal(err)
		}
		_ = m.String()
	}
}
