package driver

// The session acceptance benchmark: a re-optimize after a 1% delta
// against a from-scratch run on the 2000-function suite (the same
// clone-heavy, production-scale shape the finder benchmarks use). The
// acceptance bar is a >= 5x speedup for BenchmarkSessionIncremental
// over BenchmarkSessionFullRebuild: the incremental run re-indexes only
// the touched 1% and serves every unchanged unprofitable pair from the
// cross-run outcome memo, while the from-scratch run rebuilds the
// indexes and re-aligns everything. Measured: ~10x (35 vs 340 ms/op,
// medians of -count 3 in one sitting on a two-core Xeon); every row of
// the incremental run still asks the finder for its candidates.

import (
	"context"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/ir"
	"repro/internal/irtext"
	"repro/internal/synth"
)

var (
	sessionBenchOnce sync.Once
	// sessionBenchModule is the 2000-function suite driven to merge
	// fixpoint, so benchmark iterations commit nothing and leave the
	// module unchanged — each iteration measures pure re-optimize cost.
	sessionBenchModule *ir.Module
	// sessionBenchDelta is the 1% of defined functions the incremental
	// benchmark re-reports through Update each iteration.
	sessionBenchDelta []string
)

func sessionBenchConfig() Config {
	return Config{
		Algorithm: SalSSA, Threshold: 1, Target: costmodel.X86_64,
	}
}

func sessionBenchSetup(b *testing.B) {
	sessionBenchOnce.Do(func() {
		m := synth.Generate(synth.SuiteProfile(2000, 42))
		cfg := sessionBenchConfig()
		s, err := OpenSession(context.Background(), m, cfg)
		if err != nil {
			panic(err)
		}
		for i := 0; i < 8; i++ {
			res, err := s.Optimize(context.Background())
			if err != nil {
				panic(err)
			}
			if len(res.Merges) == 0 {
				break
			}
		}
		s.Close()
		sessionBenchModule = m
		defined := m.Defined()
		for i := 0; i < len(defined); i += 100 {
			sessionBenchDelta = append(sessionBenchDelta, defined[i].Name())
		}
	})
}

// BenchmarkSessionFullRebuild re-optimizes the fixpoint module from
// scratch each iteration: OpenSession rebuilds every index and the walk
// re-aligns every candidate pair, exactly what each RunContext call
// paid before sessions existed.
func BenchmarkSessionFullRebuild(b *testing.B) {
	sessionBenchSetup(b)
	cfg := sessionBenchConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := OpenSession(context.Background(), sessionBenchModule, cfg)
		if err != nil {
			b.Fatal(err)
		}
		res, err := s.Optimize(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Merges) != 0 {
			b.Fatalf("fixpoint module committed %d merges", len(res.Merges))
		}
		s.Close()
	}
}

// BenchmarkSessionIncremental holds one session open and, each
// iteration, reports a 1% delta (20 of 2000 functions) through Update
// before re-optimizing: only the touched functions are re-indexed and
// re-aligned; every unchanged unprofitable pair is served from the
// outcome memo.
func BenchmarkSessionIncremental(b *testing.B) {
	sessionBenchSetup(b)
	cfg := sessionBenchConfig()
	s, err := OpenSession(context.Background(), sessionBenchModule, cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	// Warm run: populate the outcome memo the steady state serves from.
	if _, err := s.Optimize(context.Background()); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Update(context.Background(), sessionBenchDelta...); err != nil {
			b.Fatal(err)
		}
		res, err := s.Optimize(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Merges) != 0 {
			b.Fatalf("fixpoint module committed %d merges", len(res.Merges))
		}
	}
}

// churnRound renders one delta of the build-service workload: per
// functions of the suite, drawn in order's sequence starting at round,
// each redefined as a freshly mutated clone of its pristine body (which
// scratch keeps), as the text a client would send.
func churnRound(scratch *ir.Module, b *synth.Builder, targets []*ir.Function, order []int, round, per int, rate float64) string {
	var sb strings.Builder
	for j := 0; j < per; j++ {
		tmpl := targets[order[(round*per+j)%len(order)]]
		edit := b.Clone(tmpl, tmpl.Name()+".edit", rate)
		scratch.RemoveFunc(edit)
		edit.SetName(tmpl.Name())
		sb.WriteString(edit.String())
		sb.WriteString("\n")
	}
	return sb.String()
}

// BenchmarkSessionChurnRound is one round of the build-service loop
// under the build-service configuration — the indexed finder, families
// of up to four: a text delta redefining 1% of a 1,000-function suite
// as mutated clones, UpdateBatch, Optimize. Where
// BenchmarkSessionIncremental re-reports unchanged bodies at a merge
// fixpoint with families off, every round here commits
// folds, merges and flattens, so it is the profiling entry point for
// what a session round costs (-cpuprofile) and the place to watch the
// finder queries a round still makes.
func BenchmarkSessionChurnRound(b *testing.B) {
	const funcs, per = 1000, 10
	ctx := context.Background()
	prof := synth.SuiteProfile(funcs, 42)
	m := synth.Generate(prof)
	s, err := OpenSession(ctx, m, Config{
		Algorithm: SalSSA, Threshold: 1, Target: costmodel.X86_64,
		MaxFamily: 4,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	cold, err := s.Optimize(ctx)
	if err != nil {
		b.Fatal(err)
	}
	// Redefining one function of a fold group would silently change
	// the others (they forward to it): the deltas leave them alone.
	folded := map[string]bool{}
	for _, f := range cold.Folds {
		folded[f.Dup], folded[f.Rep] = true, true
	}
	scratch := synth.Generate(prof)
	rng := rand.New(rand.NewSource(7))
	builder := synth.NewBuilder(scratch, rng, prof)
	var targets []*ir.Function
	for _, f := range scratch.Defined() {
		if !folded[f.Name()] {
			targets = append(targets, f)
		}
	}
	order := rng.Perm(len(targets))
	queries := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		frag := churnRound(scratch, builder, targets, order, i, per, prof.MutRate)
		b.StartTimer()
		names, err := irtext.ParseInto(m, frag)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.UpdateBatch(ctx, names, nil); err != nil {
			b.Fatal(err)
		}
		res, err := s.Optimize(ctx)
		if err != nil {
			b.Fatal(err)
		}
		queries += res.Search.Queries
	}
	b.ReportMetric(float64(queries)/float64(b.N), "finder-queries/round")
}
