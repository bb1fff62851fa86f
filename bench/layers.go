package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"

	repro "repro"
	"repro/internal/align"
	"repro/internal/analysis"
	"repro/internal/canon"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/fingerprint"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/irtext"
	"repro/internal/search"
	"repro/internal/transform"
)

// Replay sample sizes at scale 1.
const (
	replayPairs   = 400 // top-1 candidate pairs taken through align, codegen and clean-up
	replayFuncs   = 600 // functions visited by the per-function replays
	replayInterp  = 300 // functions interpreted
	replayReindex = 200 // functions removed from and re-added to the index
	replaySplice  = 20  // functions per replayed text fragment
	// batchReps repeats a call too short to time on its own inside one
	// span.
	batchReps = 50
)

// The passes of a traced run; span.Run holds one of them.
const (
	passPipeline = 1
	passReplay   = 2
)

// runTraced is the --trace 1 run: the timed section once with tracing
// off (the reference for trace.overhead_pct and the collector's
// share), once under spans, then every layer's public functions
// replayed under spans over the same inputs.
func runTraced(w *workload, c config) (*result, error) {
	untraced, _, err := measureOnce(w, c, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	tr.run = passPipeline
	traced, inst, err := measureOnce(w, c, tr)
	if err != nil {
		return nil, err
	}
	pristine, err := inst.pristine()
	if err != nil {
		return nil, fmt.Errorf("regenerating pristine inputs: %w", err)
	}
	ms := metricSet{}
	pipelineMetrics(ms, tr, inst, untraced, traced)
	tr.run = passReplay
	rp := &replay{tr: tr, ms: ms, rng: rand.New(rand.NewSource(c.seed)), scale: c.scale}
	rp.load(inst, pristine)
	rp.text()
	rp.functions()
	rp.search(inst.finder)
	rp.pairs()
	v, err := verify(inst, c.seed)
	if err != nil {
		return nil, err
	}
	res := &result{
		Correct:   v.failed+rp.failed == 0,
		Attempted: v.ops + rp.ops,
		Failed:    v.failed + rp.failed,
		Metrics:   ms,
	}
	err = writeJSON(c.out, "trace-"+w.name+".json", map[string]any{
		"workload": w.name, "seed": c.seed, "spans": tr.spans,
		"pipeline": tr.totals(passPipeline), "replay": tr.totals(passReplay),
		"mismatches": append(v.mismatches, rp.mismatches...),
	})
	return res, err
}

type metricSet map[string]metric

func (ms metricSet) set(name string, v float64, unit string) { ms[name] = metric{v, unit} }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// pipelineMetrics derives the driver.*, runtime.* and trace.* metrics
// from the two pipeline passes: harness spans around each call into
// the driver, and the phase clocks and counters of the Reports the
// timed section returned.
func pipelineMetrics(ms metricSet, tr *tracer, inst *instance, untraced, traced rep) {
	secs := tr.totals(passPipeline).secs
	var sum repro.Report
	merges, folds := 0, 0
	for _, u := range inst.units {
		for _, r := range u.reports[u.cold:] {
			sum.ScreenTime += r.ScreenTime
			sum.AlignTime += r.AlignTime
			sum.CodegenTime += r.CodegenTime
			sum.CommitTime += r.CommitTime
			sum.Search.QueryTime += r.Search.QueryTime
			sum.Attempts += r.Attempts
			sum.PairsScreened += r.PairsScreened
			sum.DPAborted += r.DPAborted
			sum.TrialsSkipped += r.TrialsSkipped
			sum.TrialsBuilt += r.TrialsBuilt
			sum.OutcomeHits += r.OutcomeHits
			sum.Flattened += r.Flattened
			merges += len(r.Merges)
			folds += len(r.Folds)
		}
	}
	// The live-heap samples force collections the untraced section does
	// not have; their spans are taken back out.
	total := traced.OptimizeS - secs("runtime.GC")
	// index_s is the time spent bringing the indexes up to date with
	// the module: Open on one-shot runs, UpdateBatch + Flush per round
	// on session-churn.
	index := secs("driver.Open") + secs("driver.UpdateBatch")
	phases := index + sum.Search.QueryTime.Seconds() + sum.ScreenTime.Seconds() +
		sum.AlignTime.Seconds() + sum.CodegenTime.Seconds() + sum.CommitTime.Seconds()
	ms.set("driver.total_s", total, "s")
	ms.set("driver.index_s", index, "s")
	ms.set("driver.query_s", sum.Search.QueryTime.Seconds(), "s")
	ms.set("driver.screen_s", sum.ScreenTime.Seconds(), "s")
	ms.set("driver.align_s", sum.AlignTime.Seconds(), "s")
	ms.set("driver.codegen_s", sum.CodegenTime.Seconds(), "s")
	ms.set("driver.commit_s", sum.CommitTime.Seconds(), "s")
	ms.set("driver.unattributed_pct", 100*(total-phases)/total, "%")
	ms.set("driver.attempts", float64(sum.Attempts), "count")
	ms.set("driver.pairs_screened", float64(sum.PairsScreened), "count")
	ms.set("driver.dp_aborted", float64(sum.DPAborted), "count")
	ms.set("driver.trials_skipped", float64(sum.TrialsSkipped), "count")
	ms.set("driver.trials_built", float64(sum.TrialsBuilt), "count")
	ms.set("driver.merges", float64(merges), "count")
	ms.set("driver.folds", float64(folds), "count")
	ms.set("driver.outcome_hits", float64(sum.OutcomeHits), "count")
	ms.set("driver.flattened", float64(sum.Flattened), "count")
	ms.set("driver.useful_trials_pct", 100*ratio(float64(merges), float64(sum.TrialsBuilt)), "%")

	// One round is one Optimize call: the whole run on the corpus
	// workloads, a program on paper-suites, a delta on session-churn.
	var rounds []float64
	for _, s := range tr.spans {
		if s.Run == passPipeline && s.Name == "driver.Optimize" {
			rounds = append(rounds, float64(s.End-s.Start)/1e6)
		}
	}
	sort.Float64s(rounds)
	rank := func(p float64) float64 { return rounds[int(math.Ceil(p*float64(len(rounds))))-1] }
	ms.set("driver.round_p50_ms", rank(0.5), "ms")
	ms.set("driver.round_p80_ms", rank(0.8), "ms")

	gc := untraced.gc
	ms.set("runtime.gc_cycles", float64(gc.cycles), "count")
	ms.set("runtime.gc_cpu_s", gc.cpuS, "s")
	ms.set("runtime.gc_cpu_pct", 100*gc.cpuS/untraced.OptimizeS, "%")
	ms.set("runtime.gc_pause_ms", gc.pauseMS, "ms")
	ms.set("runtime.mallocs_m", float64(gc.mallocs)/1e6, "M")
	ms.set("runtime.live_heap_mb", float64(tr.liveHeap)/mib, "MiB")
	ms.set("trace.overhead_pct", 100*(total-untraced.OptimizeS)/untraced.OptimizeS, "%")
}

// replay drives each layer's public functions over the workload's
// pristine inputs, one span per call, and turns the span totals into
// the per-layer metrics. Merged bodies it builds are verified, which
// adds to the run's ops.
type replay struct {
	tr    *tracer
	ms    metricSet
	rng   *rand.Rand
	scale int

	mods    []*ir.Module
	targets []repro.Target
	// funcs is every defined function of every module in a seeded
	// order; modOf maps each back to its module.
	funcs []*ir.Function
	modOf map[*ir.Function]int
	// cands holds the top-1 candidate pairs the search replay found.
	cands [][2]*ir.Function

	ops, failed int
	mismatches  []string
}

func (rp *replay) n(full int) int { return max(1, full/rp.scale) }

// do times one call covering ops operations.
func (rp *replay) do(name string, ops int, f func()) {
	id := rp.tr.begin(name, ops)
	f()
	rp.tr.end(id)
}

// totals rolls up the replay's spans so far.
func (rp *replay) totals() spanTotals { return rp.tr.totals(passReplay) }

func (rp *replay) load(inst *instance, pristine []*ir.Module) {
	rp.mods = pristine
	rp.modOf = map[*ir.Function]int{}
	for i, m := range pristine {
		rp.targets = append(rp.targets, inst.units[i].target)
		for _, f := range m.Defined() {
			rp.funcs = append(rp.funcs, f)
			rp.modOf[f] = i
		}
	}
	rp.rng.Shuffle(len(rp.funcs), func(i, j int) { rp.funcs[i], rp.funcs[j] = rp.funcs[j], rp.funcs[i] })
}

func (rp *replay) sample(n int) []*ir.Function { return rp.funcs[:min(n, len(rp.funcs))] }

// text replays printing, parsing and splicing: every module is printed
// and parsed back, and a fragment redefining replaySplice functions
// with their own bodies is spliced into the parsed copy.
func (rp *replay) text() {
	var bytes int
	for i, m := range rp.mods {
		var src string
		rp.do("ir.Module.String", 1, func() { src = m.String() })
		bytes += len(src)
		var parsed *ir.Module
		var err error
		rp.do("irtext.Parse", 1, func() { parsed, err = irtext.Parse(src) })
		if err == nil {
			var frag strings.Builder
			for _, f := range m.Defined()[:min(replaySplice, len(m.Defined()))] {
				frag.WriteString(f.String())
			}
			rp.do("irtext.ParseInto", 1, func() { _, err = irtext.ParseInto(parsed, frag.String()) })
		}
		rp.ops++
		if err != nil {
			rp.failed++
			rp.mismatches = append(rp.mismatches, fmt.Sprintf("module %d does not round-trip through text: %v", i, err))
		}
	}
	t := rp.totals()
	rp.ms.set("ir.print_mb_per_s", ratio(float64(bytes)/mib, t.secs("ir.Module.String")), "MiB/s")
	rp.ms.set("irtext.parse_mb_per_s", ratio(float64(bytes)/mib, t.secs("irtext.Parse")), "MiB/s")
	rp.ms.set("irtext.splice_ms", t.each("irtext.ParseInto")*1e3, "ms")
}

// functions replays the per-function layers: fingerprints, structural
// hashes, canonical views and the interpreter.
func (rp *replay) functions() {
	fs := rp.sample(rp.n(replayFuncs))
	fps := make([]*fingerprint.Fingerprint, len(fs))
	for i, f := range fs {
		rp.do("fingerprint.New", 1, func() { fps[i] = fingerprint.New(f) })
		rp.do("search.HashFunction", 1, func() { search.HashFunction(f) })
		rp.do("canon.Build", 1, func() { canon.Build(f, canon.Default()) })
	}
	rp.do("fingerprint.Distance", batchReps*len(fps), func() {
		for r := 0; r < batchReps; r++ {
			for i := range fps {
				fingerprint.Distance(fps[i], fps[(i+1)%len(fps)])
			}
		}
	})
	env := interp.NewEnv()
	env.MaxSteps = oracleSteps
	steps := 0
	for _, f := range rp.sample(rp.n(replayInterp)) {
		for s := int64(1); s <= oracleArgSeeds; s++ {
			args := interp.ArgsFor(f, s)
			rp.do("interp.Run", 1, func() { steps += interp.Run(env, f, args).Steps })
		}
	}
	t := rp.totals()
	rp.ms.set("fingerprint.new_us", t.each("fingerprint.New")*1e6, "us")
	rp.ms.set("fingerprint.distance_ns", t.each("fingerprint.Distance")*1e9, "ns")
	rp.ms.set("search.hash_us", t.each("search.HashFunction")*1e6, "us")
	rp.ms.set("canon.build_us", t.each("canon.Build")*1e6, "us")
	rp.ms.set("interp.msteps_per_s", ratio(float64(steps)/1e6, t.secs("interp.Run")), "M/s")
}

// search replays the candidate finder the workload's pipeline uses:
// index every module, query the top-1 candidate of sampled functions
// (which also picks the pairs the codegen replay merges), then remove
// and re-add sampled functions the way a session delta does.
func (rp *replay) search(kind repro.FinderKind) {
	finders := make([]search.Finder, len(rp.mods))
	for i, m := range rp.mods {
		rp.do("search.New", 1, func() { finders[i] = search.New(kind, m.Defined()) })
	}
	want := rp.n(replayPairs)
	for _, f := range rp.funcs {
		if len(rp.cands) == want {
			break
		}
		var got []*ir.Function
		rp.do("search.Candidates", 1, func() { got = finders[rp.modOf[f]].Candidates(f, 1) })
		if len(got) > 0 {
			rp.cands = append(rp.cands, [2]*ir.Function{f, got[0]})
		}
	}
	var stats search.Stats
	for _, fd := range finders {
		st := fd.Stats()
		stats.Queries += st.Queries
		stats.Scanned += st.Scanned
	}
	for _, f := range rp.sample(rp.n(replayReindex)) {
		fd := finders[rp.modOf[f]]
		rp.do("search.Remove+Add", 1, func() {
			fd.Remove(f)
			fd.Add(f)
		})
	}
	t := rp.totals()
	rp.ms.set("search.index_s", t.secs("search.New"), "s")
	rp.ms.set("search.query_us", t.each("search.Candidates")*1e6, "us")
	rp.ms.set("search.scanned_per_query", stats.AvgScanned(), "count")
	rp.ms.set("search.remove_add_us", t.each("search.Remove+Add")*1e6, "us")
}

// pair is one candidate pair on its way through the codegen replay.
type pair struct {
	target repro.Target
	c1, c2 *ir.Function // clones in a scratch module
	s1, s2 align.Seq
	ares   *align.Result
	plan   *core.ParamPlan
	merged *ir.Function
}

// pairs replays the MergePair sequence stage by stage over the
// candidate pairs: clone into a scratch module, screen, align,
// generate, clean up, build thunks. Each stage runs over all pairs
// before the next starts, so the allocation delta of the generator
// stage is the generator's alone.
func (rp *replay) pairs() {
	ctx := context.Background()
	opts := core.DefaultOptions()
	it := align.NewInterner()
	var ps []*pair
	for _, c := range rp.cands {
		plan, err := core.PlanParams(c[0], c[1])
		if err != nil {
			continue // signatures the generator rejects; the driver skips them too
		}
		p := &pair{target: rp.targets[rp.modOf[c[0]]], plan: plan}
		scratch := ir.NewModule()
		rp.do("ir.CloneFunction", 2, func() {
			p.c1, _ = ir.CloneFunction(c[0], c[0].Name())
			p.c2, _ = ir.CloneFunction(c[1], c[1].Name())
		})
		scratch.AddFunc(p.c1)
		scratch.AddFunc(p.c2)
		ps = append(ps, p)
	}

	var screened, cells, rows, matches, instrsIn, instrsOut int
	for _, p := range ps {
		rp.do("align.NewSeq", 2, func() {
			p.s1, p.s2 = align.NewSeq(p.c1, it), align.NewSeq(p.c2, it)
		})
		var f1, f2 *costmodel.FuncProfile
		rp.do("costmodel.NewFuncProfile", 2, func() {
			f1 = costmodel.NewFuncProfile(p.c1, p.target, p.s1)
			f2 = costmodel.NewFuncProfile(p.c2, p.target, p.s2)
		})
		rp.do("costmodel.Bound", 1, func() {
			if costmodel.Bound(f1, f2, p.target).UB <= 0 {
				screened++
			}
		})
	}
	for _, p := range ps {
		var err error
		rp.do("align.AlignSeqsCtx", 1, func() { p.ares, err = align.AlignSeqsCtx(ctx, p.s1, p.s2, opts.Align) })
		if err != nil {
			p.ares = nil
			continue
		}
		cells += len(p.s1.Entries) * len(p.s2.Entries)
		rows += len(p.ares.Pairs)
		matches += p.ares.Matches
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	built := 0
	for _, p := range ps {
		if p.ares == nil {
			continue
		}
		var err error
		rp.do("core.MergeAlignedCtx", 1, func() {
			p.merged, _, err = core.MergeAlignedCtx(ctx, p.c1.Parent(), p.c1, p.c2, "merged", p.ares, opts)
		})
		if err != nil {
			p.merged = nil
			continue
		}
		built++
	}
	runtime.ReadMemStats(&m1)

	for _, p := range ps {
		if p.merged == nil {
			continue
		}
		instrsIn += p.c1.NumInstrs() + p.c2.NumInstrs()
		rp.do("transform.Simplify", 1, func() { transform.Simplify(p.merged) })
		instrsOut += p.merged.NumInstrs()
		rp.do("analysis.NewDomTree", 1, func() { analysis.NewDomTree(p.merged) })
		var err error
		rp.do("ir.VerifyFunction", 1, func() { err = ir.VerifyFunction(p.merged) })
		rp.ops++
		if err != nil {
			rp.failed++
			rp.mismatches = append(rp.mismatches, fmt.Sprintf("replayed merge of @%s and @%s: %v", p.c1.Name(), p.c2.Name(), err))
		}
		// Promotion is replayed over the merged body demoted to memory
		// form, the shape SSA repair hands it.
		demoted, _ := ir.CloneFunction(p.merged, "demoted")
		transform.RegToMem(demoted)
		rp.do("transform.Mem2Reg", 1, func() { transform.Mem2Reg(demoted) })
		rp.do("core.BuildThunk", 2, func() {
			core.BuildThunk(p.c1, p.merged, 0, p.plan.Maps[0], p.plan)
			core.BuildThunk(p.c2, p.merged, 1, p.plan.Maps[1], p.plan)
		})
	}

	t := rp.totals()
	us := func(name string) float64 { return t.each(name) * 1e6 }
	rp.ms.set("ir.clone_us", us("ir.CloneFunction"), "us")
	rp.ms.set("ir.verify_us", us("ir.VerifyFunction"), "us")
	rp.ms.set("align.seq_us", us("align.NewSeq"), "us")
	rp.ms.set("align.pair_us", us("align.AlignSeqsCtx"), "us")
	rp.ms.set("align.mcells_per_s", ratio(float64(cells)/1e6, t.secs("align.AlignSeqsCtx")), "M/s")
	rp.ms.set("align.match_pct", 100*ratio(float64(matches), float64(rows)), "%")
	rp.ms.set("costmodel.profile_us", us("costmodel.NewFuncProfile"), "us")
	rp.ms.set("costmodel.bound_ns", us("costmodel.Bound")*1e3, "ns")
	rp.ms.set("costmodel.screened_pct", 100*ratio(float64(screened), float64(len(ps))), "%")
	rp.ms.set("core.merge_us", us("core.MergeAlignedCtx"), "us")
	rp.ms.set("core.merge_allocs", ratio(float64(m1.Mallocs-m0.Mallocs), float64(built)), "count")
	rp.ms.set("core.merge_bytes", ratio(float64(m1.TotalAlloc-m0.TotalAlloc), float64(built)), "B")
	rp.ms.set("core.thunk_us", us("core.BuildThunk"), "us")
	rp.ms.set("core.merged_instrs_pct", 100*ratio(float64(instrsOut), float64(instrsIn)), "%")
	rp.ms.set("transform.simplify_us", us("transform.Simplify"), "us")
	rp.ms.set("transform.mem2reg_us", us("transform.Mem2Reg"), "us")
	rp.ms.set("analysis.domtree_us", us("analysis.NewDomTree"), "us")
}
