package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	repro "repro"
	"repro/internal/corpus"
	"repro/internal/ir"
	"repro/internal/synth"
)

// What --seed varies. Every workload's input is a fixed code base plus a
// seeded delta, the way a build sees mostly yesterday's code: the base
// comes from baseSeed (or the paper suites' own profile seeds), and the
// seed generates one function in deltaShare (on session-churn, one in
// churnSeedShare of the redefinitions the rounds stream in). Reseeding
// a whole corpus moves optimize_s by 30% on tiny8k and peak heap by 20%
// on paper-suites, because a handful of global draws (which classes
// are numbered first and so which LSH bands fill up, the size of four
// library templates, the one largest alignment) decide them; behind
// that no regression under 25% would show. See README.md.
const (
	baseSeed       = 20200615
	deltaShare     = 20
	churnSeedShare = 5
)

// Workload sizes. Each is set so one timed section takes a little over
// 5 s at GOMAXPROCS(1) on the reference box: the driver's budget for
// the whole benchmark (92 runs in under an hour) leaves about 25 s for
// a run of three reps with their set-up and the oracle. The names keep
// the ROADMAP's reference corpora they were scaled down from.
const (
	cloneFuncs = 7000 // ROADMAP reference: 10,000
	tinyFuncs  = 6500 // 8,000
	// paperDivisor divides every SPEC2006 and MiBench function count;
	// SPEC2017 is left out (it repeats SPEC2006's profile mix).
	paperDivisor  = 3
	churnFuncs    = 1000 // Session benchmarks' reference: 2,000
	churnRounds   = 20
	churnPerRound = 10
	churnMutRate  = 0.06
)

// workload is one named set of inputs.
type workload struct {
	name string
	// prepare generates the inputs from the seed and does whatever the
	// timed section takes as given. It is the set-up that setup_s times.
	prepare func(c config) (*instance, error)
}

// instance is one prepared rep of a workload.
type instance struct {
	// run is the timed section. It fills units.
	run func(tr *tracer) error
	// units are the output modules with their reports, for the oracle.
	units []*unit
	// pristine regenerates the inputs as they were before any merging,
	// one module per unit, in the same order.
	pristine func() ([]*ir.Module, error)
	// finder is the candidate search the workload's pipeline uses; the
	// layer replay indexes with the same one.
	finder repro.FinderKind
}

// unit is one output module.
type unit struct {
	name    string
	target  repro.Target
	m       *ir.Module
	reports []*repro.Report
	// cold counts the leading reports that set-up produced; the timed
	// section's own reports follow them.
	cold int
}

func workloads() []*workload {
	return []*workload{
		{name: "clone10k", prepare: corpusWorkload(corpus.Config{Funcs: cloneFuncs})},
		{name: "tiny8k", prepare: corpusWorkload(corpus.Config{Funcs: tinyFuncs,
			CloneFrac: 1e-9, LibDupFrac: 1e-9, AvgSize: 8, MaxSize: 14})},
		{name: "paper-suites", prepare: preparePaperSuites},
		{name: "session-churn", prepare: prepareSessionChurn},
	}
}

// sessionOptimizer is the build-service configuration: LSH candidate
// search and duplicate folding, planned serially so a run's time is
// one core's work.
func sessionOptimizer() (*repro.Optimizer, error) {
	return repro.New(repro.WithFinder(repro.LSHFinder), repro.WithDupFold(true), repro.WithParallelism(1))
}

// streamCorpus generates cfg.Funcs functions into one module: the base
// corpus from baseSeed, then the seed's own corpus of a deltaShare-th
// of the functions. The base is renamed first because both streams
// number their functions from zero.
func streamCorpus(cfg corpus.Config, seed int64) *ir.Module {
	m := ir.NewModule()
	delta := cfg
	delta.Seed, delta.Funcs = seed, max(2, cfg.Funcs/deltaShare)
	cfg.Seed, cfg.Funcs = baseSeed, cfg.Funcs-delta.Funcs
	for st := corpus.NewStream(m, cfg); st.Next() != nil; {
	}
	for _, f := range m.Defined() {
		f.SetName("base_" + f.Name())
	}
	for st := corpus.NewStream(m, delta); st.Next() != nil; {
	}
	return m
}

// corpusWorkload times Open + Optimize + Close over one streamed
// corpus of cfg's shape.
func corpusWorkload(cfg corpus.Config) func(config) (*instance, error) {
	return func(c config) (*instance, error) {
		cfg := cfg
		cfg.Funcs /= c.scale
		opt, err := sessionOptimizer()
		if err != nil {
			return nil, err
		}
		u := &unit{name: "corpus", target: opt.Target(), m: streamCorpus(cfg, c.seed)}
		inst := &instance{
			finder:   opt.Finder(),
			units:    []*unit{u},
			pristine: func() ([]*ir.Module, error) { return []*ir.Module{streamCorpus(cfg, c.seed)}, nil },
		}
		inst.run = func(tr *tracer) error { return openOptimizeClose(tr, opt, u) }
		return inst, nil
	}
}

// openOptimizeClose is the one-shot pipeline with its three steps
// under their own spans: build the indexes, run, release.
func openOptimizeClose(tr *tracer, opt *repro.Optimizer, u *unit) error {
	ctx := context.Background()
	id := tr.begin("driver.Open", 1)
	s, err := opt.Open(ctx, u.m)
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin("driver.Optimize", 1)
	r, err := s.Optimize(ctx)
	tr.end(id)
	if err != nil {
		return err
	}
	u.reports = []*repro.Report{r}
	tr.sampleLiveHeap()
	id = tr.begin("driver.Close", 1)
	err = s.Close()
	tr.end(id)
	return err
}

// paperProfiles returns the SPEC2006 (x86-64) and MiBench (Thumb)
// profiles, under their own seeds, with their function counts divided
// by div the way experiments.Lab scales them.
func paperProfiles(div int) ([]synth.Profile, []repro.Target) {
	var ps []synth.Profile
	var ts []repro.Target
	add := func(suite []synth.Profile, t repro.Target) {
		for _, p := range suite {
			if n := max(4, p.Funcs/div); n < p.Funcs {
				p.Funcs = n
				if p.Funcs < 2*p.FamilySize {
					p.FamilySize = 2
				}
			}
			ps, ts = append(ps, p), append(ts, t)
		}
	}
	add(synth.SPEC2006(), repro.X86_64)
	add(synth.MiBench(), repro.Thumb)
	return ps, ts
}

// generateProgram builds the program for p and adds the seed's delta:
// one new function per deltaShare, of the profile's own shape, each a
// mutated clone of an existing function with the profile's clone
// probability and a fresh body otherwise.
func generateProgram(p synth.Profile, seed int64) *ir.Module {
	m := synth.Generate(p)
	rng := rand.New(rand.NewSource(p.Seed<<20 ^ seed))
	b := synth.NewBuilder(m, rng, p)
	defined := m.Defined()
	for i := 0; i < max(1, p.Funcs/deltaShare); i++ {
		name := fmt.Sprintf("delta%03d", i)
		if rng.Float64() < p.CloneFrac {
			b.Clone(defined[rng.Intn(len(defined))], name, p.MutRate)
		} else {
			b.Build(name, b.SampleSize())
		}
	}
	return m
}

// preparePaperSuites is the paper's own configuration: the exact
// finder, threshold 1, no duplicate folding, one one-shot run per
// program. WithMaxFamily(2) makes Open + Optimize + Close exactly
// Optimizer.Optimize (which turns family tracking off for its one-shot
// session) while leaving the index build visible as its own span. The
// timed section is the sum over programs.
func preparePaperSuites(c config) (*instance, error) {
	profiles, targets := paperProfiles(paperDivisor * c.scale)
	generate := func() ([]*ir.Module, error) {
		ms := make([]*ir.Module, len(profiles))
		for i, p := range profiles {
			ms[i] = generateProgram(p, c.seed)
		}
		return ms, nil
	}
	inst := &instance{finder: repro.ExactFinder, pristine: generate}
	opts := make([]*repro.Optimizer, len(profiles))
	ms, _ := generate()
	for i, p := range profiles {
		opt, err := repro.New(repro.WithTarget(targets[i]), repro.WithParallelism(1), repro.WithMaxFamily(2))
		if err != nil {
			return nil, err
		}
		opts[i] = opt
		inst.units = append(inst.units, &unit{name: p.Name, target: targets[i], m: ms[i]})
	}
	inst.run = func(tr *tracer) error {
		for i, u := range inst.units {
			if err := openOptimizeClose(tr, opts[i], u); err != nil {
				return fmt.Errorf("%s: %w", u.name, err)
			}
		}
		return nil
	}
	return inst, nil
}

// prepareSessionChurn is the build-service use: a session is opened
// and optimized cold during set-up, and the timed section streams
// churnRounds deltas into it, each a text fragment redefining
// churnPerRound functions (1% of the suite), followed by UpdateBatch
// and a re-optimize.
func prepareSessionChurn(c config) (*instance, error) {
	prof := synth.SuiteProfile(churnFuncs/c.scale, baseSeed)
	opt, err := sessionOptimizer()
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	u := &unit{name: prof.Name, target: opt.Target(), m: synth.Generate(prof)}
	s, err := opt.Open(ctx, u.m)
	if err != nil {
		return nil, err
	}
	cold, err := s.Optimize(ctx)
	if err != nil {
		return nil, err
	}
	u.reports, u.cold = []*repro.Report{cold}, 1
	// A folded duplicate forwards to its representative, and later runs
	// fold forwarders onto each other, so redefining any function of a
	// fold group would silently change the others. A build service
	// would have to resend them all; the deltas leave the cold run's
	// fold groups alone instead.
	folded := map[string]bool{}
	for _, f := range cold.Folds {
		folded[f.Dup], folded[f.Rep] = true, true
	}
	frags := renderFragments(prof, c.seed, churnRounds, max(1, churnPerRound/c.scale), folded)
	inst := &instance{finder: opt.Finder(), units: []*unit{u}}
	inst.pristine = func() ([]*ir.Module, error) {
		m := synth.Generate(prof)
		for _, frag := range frags {
			if _, err := repro.SpliceModule(m, frag); err != nil {
				return nil, err
			}
		}
		return []*ir.Module{m}, nil
	}
	inst.run = func(tr *tracer) error {
		for _, frag := range frags {
			round := tr.begin("round", 1)
			id := tr.begin("irtext.ParseInto", 1)
			names, err := repro.SpliceModule(u.m, frag)
			tr.end(id)
			if err != nil {
				return err
			}
			// Flush pays the re-index here, as a daemon does, rather than
			// inside the next Optimize: the outcome is the same and the
			// index maintenance gets its own span.
			id = tr.begin("driver.UpdateBatch", 1)
			err = s.UpdateBatch(ctx, names, nil)
			if err == nil {
				err = s.Flush()
			}
			tr.end(id)
			if err != nil {
				return err
			}
			id = tr.begin("driver.Optimize", 1)
			r, err := s.Optimize(ctx)
			tr.end(id)
			if err != nil {
				return err
			}
			u.reports = append(u.reports, r)
			tr.end(round)
		}
		tr.sampleLiveHeap()
		id := tr.begin("driver.Close", 1)
		err := s.Close()
		tr.end(id)
		return err
	}
	return inst, nil
}

// renderFragments pre-renders the churn deltas: for each round, the
// text of per functions of the suite, each redefined as a mutated clone
// of its current body. Which functions are edited, and when, belongs to
// the code base: the names are drawn from baseSeed, without replacement
// from the functions not in skip, so no function is redefined twice.
// What the edits are is the seed's for one edit in churnSeedShare and
// the code base's for the rest. Nothing else draws from either rng.
func renderFragments(prof synth.Profile, seed int64, rounds, per int, skip map[string]bool) []string {
	scratch := synth.Generate(prof)
	baseRng := rand.New(rand.NewSource(baseSeed))
	base := synth.NewBuilder(scratch, baseRng, prof)
	seeded := synth.NewBuilder(scratch, rand.New(rand.NewSource(seed)), prof)
	var defined []*ir.Function
	for _, f := range scratch.Defined() {
		if !skip[f.Name()] {
			defined = append(defined, f)
		}
	}
	order := baseRng.Perm(len(defined))
	frags := make([]string, rounds)
	for r := range frags {
		var sb strings.Builder
		for j, k := range order[r*per : (r+1)*per] {
			b := base
			if j%churnSeedShare == 0 {
				b = seeded
			}
			tmpl := defined[k]
			edit := b.Clone(tmpl, tmpl.Name()+".edit", churnMutRate)
			scratch.RemoveFunc(edit)
			edit.SetName(tmpl.Name())
			sb.WriteString(edit.String())
			sb.WriteString("\n")
		}
		frags[r] = sb.String()
	}
	return frags
}
