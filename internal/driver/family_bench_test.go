package driver

// BenchmarkFamilyMerge compares the two chain-growth policies on the
// 2000-function suite: chain-of-pairs (MaxFamily 2, the historical
// nesting) against flattened k-ary families (MaxFamily 4). Each run
// drives a session to merge fixpoint and reports the final
// costmodel.ModuleBytes as the benchmark metric alongside flatten
// counts — CI uploads the numbers as BENCH_family.json so the size
// advantage of flattening accumulates a trajectory across commits.

import (
	"context"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/ir"
	"repro/internal/synth"
)

func familyBenchModule() *ir.Module {
	return synth.Generate(synth.Profile{
		Name: "fam2k", Seed: 43, Funcs: 2000,
		MinSize: 6, AvgSize: 40, MaxSize: 220,
		CloneFrac: 0.5, FamilySize: 3, MutRate: 0.05,
		Loops: 0.5, Switches: 0.4,
	})
}

func benchFamilyFixpoint(b *testing.B, maxFamily int) {
	cfg := Config{
		Algorithm: SalSSA, Threshold: 3, Target: costmodel.X86_64,
		MaxFamily: maxFamily,
	}
	base := familyBenchModule()
	var finalBytes, flattened, merges int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := ir.CloneModule(base)
		b.StartTimer()
		s, err := OpenSession(context.Background(), m, cfg)
		if err != nil {
			b.Fatal(err)
		}
		for r := 0; r < 8; r++ {
			res, err := s.Optimize(context.Background())
			if err != nil {
				b.Fatal(err)
			}
			flattened += res.Flattened
			merges += len(res.Merges)
			if len(res.Merges) == 0 {
				break
			}
		}
		s.Close()
		finalBytes = costmodel.ModuleBytes(m, cfg.Target)
	}
	b.ReportMetric(float64(finalBytes), "module-bytes")
	b.ReportMetric(float64(flattened)/float64(b.N), "flattens/op")
	b.ReportMetric(float64(merges)/float64(b.N), "merges/op")
}

// BenchmarkFamilyMerge/nested is the pre-family behaviour: every chain
// step stacks another pairwise layer.
// BenchmarkFamilyMerge/flattened re-merges families k-ary; its
// module-bytes metric must trend below nested's.
func BenchmarkFamilyMerge(b *testing.B) {
	b.Run("nested", func(b *testing.B) { benchFamilyFixpoint(b, 2) })
	b.Run("flattened", func(b *testing.B) { benchFamilyFixpoint(b, 4) })
}
