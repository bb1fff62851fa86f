// Command fmerge applies function merging to textual IR modules.
//
// Usage:
//
//	fmerge [-algo salssa|salssa-nopc|fmsa] [-t N] [-target x86-64|thumb]
//	       [-linear-align] [-max-cells N] [-min-instrs N]
//	       [-skip-hot f1,f2,...] [-finder exact|lsh] [-dup-fold] [-canon]
//	       [-max-family N] [-rounds N] [-jobs N]
//	       [-cpuprofile f] [-memprofile f]
//	       [-plan out.json | -apply plan.json]
//	       [-v] [-print] [-pair f1,f2] file.ll [file2.ll ...]
//	fmerge -corpus 10k|100k|1m|N [pipeline flags]
//	fmerge -scale 10k,100k [-jobs N] [-scale-out BENCH_scale.json]
//
// Without -pair, the whole-module pipeline runs (ranking + cost model);
// with -pair, the named functions are merged unconditionally by the
// SalSSA generator (combining -pair with -algo fmsa is rejected: FMSA
// merges need whole-module register demotion). -print writes the
// resulting module(s) to stdout; statistics go to stderr.
//
// Several input files form a batch: each module runs through one shared
// Optimizer (a session per module), with per-module statistics and an
// aggregate summary at the end. -pair, -plan and -apply accept a single
// input file.
//
// Plan/apply workflow (SalSSA variants only):
//
//	-plan out.json  dry-run the pipeline against a session: the module
//	                is left untouched and the proposed merge plan —
//	                folds, merges, profits, structural hashes — is
//	                written to out.json ("-" for stdout). Review or
//	                filter it, then commit it with -apply.
//	-apply in.json  commit a previously written plan. Every referenced
//	                function is verified against the plan's structural
//	                hash, so a stale plan (the module changed since
//	                planning) is rejected instead of merging the wrong
//	                code.
//
// Pipeline knobs:
//
//	-t N            exploration threshold: ranked candidates tried per
//	                function (paper uses 1, 5, 10)
//	-linear-align   Hirschberg linear-space alignment: same merges in
//	                O(n+m) memory for roughly twice the time
//	-max-cells N    skip pairs whose alignment matrix would exceed N
//	                cells (0 = unlimited)
//	-min-instrs N   ignore functions smaller than N instructions
//	-skip-hot list  comma-separated functions excluded from merging
//	                (the paper's §5.7 hot-path remedy)
//	-finder kind    candidate search: "exact" (brute-force ranking,
//	                bit-identical merges to the original pipeline) or
//	                "lsh" (the indexed exact finder: the same lists
//	                from a size-ordered walk pruned by admissible
//	                lower bounds; the name is historical)
//	-dup-fold       fold structurally identical functions into
//	                forwarding thunks before any alignment runs
//	-canon          index every function through a private canonical
//	                view (mem2reg + CFG simplification + constant
//	                folding + operand normalization + GVN): candidate
//	                search sees through reducible noise between
//	                near-clones, and -dup-fold widens to canonical
//	                congruence with an interpreter check per fold.
//	                Merges still rewrite the original bodies; without
//	                the flag the pipeline is the historical one,
//	                bit-for-bit. Ignored under -algo fmsa
//	-max-family N   flatten merge chains into k-ary families of up to
//	                N members (default 4): when a merged function finds
//	                another profitable partner, the family's original
//	                bodies re-merge into one fresh body behind an
//	                integer function identifier instead of nesting
//	                another pairwise layer; 2 disables flattening
//	-rounds N       re-optimize each module up to N times through one
//	                session (default 1 = the historical one-shot run;
//	                0 = until a round commits nothing). Merged
//	                functions re-enter the ranking between rounds, so
//	                chains — and with -max-family >= 3, flattened
//	                families — need N > 1
//	-jobs N         run the merge loop's rows on N workers (0 = all
//	                CPUs, 1 = the serial loop): the candidate graph's
//	                connected components are tried side by side and
//	                the loop validates each result before using it, so
//	                merges, plans and the module are bit-identical to
//	                a serial run at any value
//
// Scale modes (see README "Million-function corpora"):
//
//	-corpus TIER    generate a deterministic synthetic corpus — clone
//	                families plus library duplicates — at 10k/100k/1m
//	                scale (or any function count) and run the pipeline
//	                on it, instead of reading input files
//	-scale TIERS    benchmark mode: for each comma-separated tier,
//	                stream the corpus batch-by-batch into a session
//	                (indexed finder), optimize, and record phase
//	                wall-clock, peak heap, post-index live heap and
//	                finder work as a JSON artifact written to
//	                -scale-out
//	-v              report every recorded merge on stderr, plus a
//	                candidate-search summary (pairs tried, memo hits,
//	                finder query time), the planning-funnel
//	                summary (pairs screened by the profit bound,
//	                alignments aborted early, trials skipped vs built),
//	                the alignment-cache summary (sequences
//	                interned/reused, class count) and the merge-family
//	                histogram (family sizes alive, chains flattened)
//
// Profiling knobs, honoured in every mode, -scale included (see README
// "Profiling the pipeline"):
//
//	-cpuprofile f   write a pprof CPU profile of the whole run to f
//	-memprofile f   write a pprof allocation profile (after the run,
//	                post-GC) to f
//
// Interrupting fmerge (SIGINT/SIGTERM) cancels the pipeline cleanly:
// already-committed merges are kept, the module still verifies, and the
// (partial) result is still reported/printed — but fmerge exits nonzero
// so scripts can tell a truncated run from a complete one.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"

	repro "repro"
	"repro/internal/corpus"
	"repro/internal/search"
)

func main() {
	algo := flag.String("algo", "salssa", "merging algorithm: salssa, salssa-nopc or fmsa")
	threshold := flag.Int("t", 1, "exploration threshold (candidates tried per function)")
	target := flag.String("target", "x86-64", "size-model target: x86-64 or thumb")
	linearAlign := flag.Bool("linear-align", false, "use Hirschberg linear-space alignment")
	maxCells := flag.Int64("max-cells", 0, "skip pairs whose alignment matrix exceeds N cells (0 = unlimited)")
	minInstrs := flag.Int("min-instrs", 0, "ignore functions smaller than N instructions")
	skipHot := flag.String("skip-hot", "", "comma-separated functions excluded from merging")
	finder := flag.String("finder", "exact", "candidate search: exact or lsh")
	dupFold := flag.Bool("dup-fold", false, "fold structurally identical functions into thunks before alignment")
	canonFlag := flag.Bool("canon", false, "index through canonical views (normalization + GVN); widens -dup-fold to semantic duplicates")
	maxFamily := flag.Int("max-family", 4, "flatten merge chains into k-ary families of up to N members (2 = always nest pairwise)")
	rounds := flag.Int("rounds", 1, "re-optimize each module up to N times through one session (0 = to fixpoint); chains form across rounds, so flattening needs N > 1")
	jobs := flag.Int("jobs", 1, "workers trying independent candidate components side by side (0 = all CPUs, 1 = serial loop); results are bit-identical at any value")
	corpusTier := flag.String("corpus", "", "optimize a generated synthetic corpus at this tier (10k, 100k, 1m or a function count) instead of reading input files")
	scaleTiers := flag.String("scale", "", "benchmark mode: stream each comma-separated corpus tier through a session and write a JSON artifact")
	scaleOut := flag.String("scale-out", "BENCH_scale.json", "output file for the -scale artifact (\"-\" = stdout)")
	verbose := flag.Bool("v", false, "report every recorded merge and the run's search, funnel and scheduler summaries on stderr")
	print := flag.Bool("print", false, "print the resulting module(s) to stdout")
	pair := flag.String("pair", "", "merge exactly this comma-separated function pair, unconditionally (SalSSA variants only)")
	planOut := flag.String("plan", "", "dry run: write the proposed merge plan as JSON to this file (\"-\" = stdout) and leave the module untouched")
	applyIn := flag.String("apply", "", "commit the JSON merge plan previously written by -plan")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a pprof allocation profile to this file")
	flag.Parse()
	if *scaleTiers != "" {
		if flag.NArg() > 0 || *corpusTier != "" || *pair != "" || *planOut != "" || *applyIn != "" {
			fatal(fmt.Errorf("-scale runs standalone: no input files, -corpus, -pair, -plan or -apply"))
		}
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		writeProfiles := startProfiles(*cpuProfile, *memProfile)
		err := runScale(ctx, strings.Split(*scaleTiers, ","), *jobs, *scaleOut, *verbose)
		writeProfiles()
		if err != nil {
			fatal(err)
		}
		return
	}
	if flag.NArg() < 1 && *corpusTier == "" {
		fmt.Fprintln(os.Stderr, "usage: fmerge [flags] file.ll [file2.ll ...]")
		flag.PrintDefaults()
		os.Exit(2)
	}
	if *planOut != "" && *applyIn != "" {
		fatal(fmt.Errorf("-plan and -apply are mutually exclusive"))
	}
	if *pair != "" && (*planOut != "" || *applyIn != "") {
		fatal(fmt.Errorf("-pair cannot be combined with -plan or -apply"))
	}
	if (*planOut != "" || *applyIn != "" || *pair != "") && flag.NArg() != 1 {
		fatal(fmt.Errorf("-plan, -apply and -pair take exactly one input file"))
	}
	// -corpus replaces the input files with one generated module; the
	// whole-module pipeline is the only mode that makes sense for it.
	var corpusCfg corpus.Config
	if *corpusTier != "" {
		if flag.NArg() > 0 {
			fatal(fmt.Errorf("-corpus and input files are mutually exclusive"))
		}
		if *pair != "" || *planOut != "" || *applyIn != "" {
			fatal(fmt.Errorf("-corpus cannot be combined with -pair, -plan or -apply"))
		}
		var err error
		if corpusCfg, err = corpus.Tier(*corpusTier); err != nil {
			fatal(err)
		}
	}
	var tgt repro.Target
	switch *target {
	case "x86-64":
		tgt = repro.X86_64
	case "thumb":
		tgt = repro.Thumb
	default:
		fatal(fmt.Errorf("unknown target %q", *target))
	}
	var alg repro.Algorithm
	switch *algo {
	case "salssa":
		alg = repro.SalSSA
	case "salssa-nopc":
		alg = repro.SalSSANoPC
	case "fmsa":
		alg = repro.FMSA
	default:
		fatal(fmt.Errorf("unknown algorithm %q", *algo))
	}
	fk, err := search.KindByName(*finder)
	if err != nil {
		fatal(err)
	}

	opts := []repro.Option{
		repro.WithAlgorithm(alg),
		repro.WithThreshold(*threshold),
		repro.WithTarget(tgt),
		repro.WithLinearAlign(*linearAlign),
		repro.WithMaxCells(*maxCells),
		repro.WithMinInstrs(*minInstrs),
		repro.WithFinder(fk),
		repro.WithDupFold(*dupFold),
		repro.WithCanon(*canonFlag),
		repro.WithMaxFamily(*maxFamily),
		repro.WithParallelism(*jobs),
	}
	if *skipHot != "" {
		opts = append(opts, repro.WithSkipHot(strings.Split(*skipHot, ",")...))
	}
	if *verbose {
		opts = append(opts, repro.WithProgress(func(ev repro.Progress) {
			verb := "->"
			if !ev.Committed {
				verb = "~>" // proposed or filtered, not applied
			}
			fmt.Fprintf(os.Stderr, "commit [run %d: %d] @%s + @%s %s @%s (profit %d)\n",
				ev.RunID, ev.Done, ev.F1, ev.F2, verb, ev.Merged, ev.Profit)
		}))
	}
	// One Optimizer serves the whole batch; each module gets its own
	// session underneath.
	opt, err := repro.New(opts...)
	if err != nil {
		fatal(err)
	}

	// Validate -pair syntax before the CPU profile starts: every fatal
	// past StartCPUProfile must go through writeProfiles first.
	var pairNames []string
	if *pair != "" {
		pairNames = strings.SplitN(*pair, ",", 2)
		if len(pairNames) != 2 {
			fatal(fmt.Errorf("-pair wants f1,f2"))
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// writeProfiles finalizes both profiles once the pipeline is done
	// (and before any nonzero exit), so profile data survives cancelled
	// runs too.
	writeProfiles := startProfiles(*cpuProfile, *memProfile)
	// fatalClean is fatal through profile finalization — an unstopped
	// CPU profile has no trailer and pprof rejects the file.
	fatalClean := func(err error) {
		writeProfiles()
		fatal(err)
	}

	inputs := flag.Args()
	if *corpusTier != "" {
		inputs = []string{"corpus:" + *corpusTier}
	}
	var totalBefore, totalAfter, batchMerges, processed int
	sawErr := false
	for _, path := range inputs {
		var m *repro.Module
		if *corpusTier != "" {
			start := time.Now()
			m = corpus.Build(corpusCfg)
			if *verbose {
				fmt.Fprintf(os.Stderr, "corpus: generated %d functions in %v\n", corpusCfg.Funcs, time.Since(start).Round(time.Millisecond))
			}
		} else {
			src, err := os.ReadFile(path)
			if err != nil {
				fatalClean(err)
			}
			if m, err = repro.ParseModule(string(src)); err != nil {
				fatalClean(fmt.Errorf("%s: %w", path, err))
			}
		}
		label := ""
		if flag.NArg() > 1 {
			label = path + ": "
		}
		before := repro.EstimateSize(m, tgt)
		totalBefore += before

		switch {
		case *pair != "":
			merged, stats, err := opt.MergePair(ctx, m, pairNames[0], pairNames[1])
			// As in the module branch: let a second interrupt kill the
			// process during output.
			stop()
			if err != nil {
				fatalClean(err)
			}
			fmt.Fprintf(os.Stderr, "merged @%s + @%s -> @%s\n", pairNames[0], pairNames[1], merged.Name())
			fmt.Fprintf(os.Stderr, "  matches=%d (instructions %d), selects=%d, label selections=%d, xor rewrites=%d\n",
				stats.Matches, stats.InstrMatches, stats.Selects, stats.LabelSelections, stats.XorRewrites)
			fmt.Fprintf(os.Stderr, "  repaired defs=%d, coalesced pairs=%d\n", stats.RepairedDefs, stats.CoalescedPairs)
			if *verbose {
				fmt.Fprintf(os.Stderr, "  build %v, SSA repair %v\n", stats.BuildTime.Round(time.Microsecond), stats.RepairTime.Round(time.Microsecond))
			}

		case *planOut != "":
			s, err := opt.Open(ctx, m)
			if err != nil {
				fatalClean(err)
			}
			plan, err := s.Plan(ctx)
			s.Close()
			stop()
			if err != nil {
				fatalClean(err)
			}
			blob, err := json.MarshalIndent(plan, "", "  ")
			if err != nil {
				fatalClean(err)
			}
			blob = append(blob, '\n')
			if *planOut == "-" {
				os.Stdout.Write(blob)
			} else if err := os.WriteFile(*planOut, blob, 0o644); err != nil {
				fatalClean(err)
			}
			profit := 0
			for _, pm := range plan.Merges {
				profit += pm.Profit
			}
			for _, pf := range plan.Folds {
				profit += pf.Profit
			}
			fmt.Fprintf(os.Stderr, "planned %d merges and %d folds (projected profit %d bytes); module untouched\n",
				len(plan.Merges), len(plan.Folds), profit)

		case *applyIn != "":
			blob, err := os.ReadFile(*applyIn)
			if err != nil {
				fatalClean(err)
			}
			var plan repro.MergePlan
			if err := json.Unmarshal(blob, &plan); err != nil {
				fatalClean(fmt.Errorf("%s: %w", *applyIn, err))
			}
			s, err := opt.Open(ctx, m)
			if err != nil {
				fatalClean(err)
			}
			rep, err := s.Apply(ctx, &plan)
			s.Close()
			stop()
			if err != nil {
				fatalClean(err)
			}
			reportModule(rep, label, *verbose, *finder)
			batchMerges += len(rep.Merges)

		default:
			rep, err := optimizeRounds(ctx, opt, m, *rounds)
			// Restore default signal behaviour: a second interrupt during
			// the module print below kills the process instead of being
			// swallowed.
			if flag.NArg() == 1 {
				stop()
			}
			if err != nil {
				sawErr = true
				fmt.Fprintf(os.Stderr, "fmerge: %spipeline stopped early: %v\n", label, err)
			}
			reportModule(rep, label, *verbose, *finder)
			batchMerges += len(rep.Merges)
		}

		if err := repro.VerifyModule(m); err != nil {
			fatalClean(fmt.Errorf("%sresult does not verify: %w", label, err))
		}
		after := repro.EstimateSize(m, tgt)
		totalAfter += after
		processed++
		fmt.Fprintf(os.Stderr, "%ssize: %d -> %d bytes (%.2f%% reduction, %s)\n",
			label, before, after, 100*float64(before-after)/float64(before), tgt)
		// A dry run leaves the module untouched, so there is nothing to
		// print — and "-plan -" owns stdout for the plan JSON.
		if *print && *planOut == "" {
			fmt.Print(repro.FormatModule(m))
		}
		if sawErr {
			break // a cancelled batch stops at the interrupted module
		}
	}
	writeProfiles()
	if flag.NArg() > 1 && totalBefore > 0 {
		// processed, not NArg: a cancelled batch stops early and the
		// summary must not claim the unvisited modules.
		fmt.Fprintf(os.Stderr, "batch: %d of %d modules, %d merges, %d -> %d bytes (%.2f%% reduction)\n",
			processed, flag.NArg(), batchMerges, totalBefore, totalAfter,
			100*float64(totalBefore-totalAfter)/float64(totalBefore))
	}
	// A cancelled pipeline printed a valid but partial result; exit
	// nonzero so scripts do not mistake it for a complete run.
	if sawErr {
		os.Exit(1)
	}
}

// optimizeRounds runs the whole-module pipeline up to rounds times
// through one session (0 = until a round commits nothing), so merged
// functions can re-enter the ranking and chains can form — and, with
// family tracking on, flatten. One round is exactly the historical
// one-shot pipeline. The returned report aggregates the merge and fold
// records of every round; sizes, search and family stats are the final
// round's.
func optimizeRounds(ctx context.Context, opt *repro.Optimizer, m *repro.Module, rounds int) (*repro.Report, error) {
	if rounds == 1 {
		return opt.Optimize(ctx, m)
	}
	s, err := opt.Open(ctx, m)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	var merges []repro.MergeRecord
	var folds []repro.FoldRecord
	flattened, baseline := 0, 0
	for i := 0; ; i++ {
		rep, err := s.Optimize(ctx)
		if rep == nil {
			return nil, err
		}
		if i == 0 {
			baseline = rep.BaselineBytes
		}
		committed := len(rep.Merges)
		merges = append(merges, rep.Merges...)
		folds = append(folds, rep.Folds...)
		flattened += rep.Flattened
		rep.Merges = merges
		rep.Folds = folds
		rep.Flattened = flattened
		rep.BaselineBytes = baseline
		if err != nil || committed == 0 || (rounds != 0 && i == rounds-1) {
			return rep, err
		}
	}
}
func reportModule(rep *repro.Report, label string, verbose bool, finder string) {
	fmt.Fprintf(os.Stderr, "%s%s[t=%d]: %d merges committed, %d attempts\n",
		label, rep.Algorithm, rep.Threshold, len(rep.Merges), rep.Attempts)
	for _, rec := range rep.Merges {
		status := "committed"
		if !rec.Committed {
			status = "skipped"
		}
		if len(rec.Family) > 0 {
			fmt.Fprintf(os.Stderr, "  %-9s family {%s} flattened -> @%s (profit %d bytes)\n",
				status, strings.Join(rec.Family, ", "), rec.Merged, rec.Profit)
			continue
		}
		fmt.Fprintf(os.Stderr, "  %-9s @%s + @%s (profit %d bytes)\n", status, rec.F1, rec.F2, rec.Profit)
	}
	if len(rep.Folds) > 0 {
		fmt.Fprintf(os.Stderr, "%s%d duplicates folded without alignment\n", label, len(rep.Folds))
		for _, fr := range rep.Folds {
			fmt.Fprintf(os.Stderr, "  folded    @%s -> @%s (profit %d bytes)\n", fr.Dup, fr.Rep, fr.Profit)
		}
	}
	if verbose {
		fmt.Fprintf(os.Stderr, "search: finder=%s, %d pairs tried\n", finder, rep.Attempts)
		if rep.OutcomeHits > 0 {
			fmt.Fprintf(os.Stderr, "search: %d trials served from the session outcome memo\n", rep.OutcomeHits)
		}
		if rep.PairsScreened > 0 || rep.DPAborted > 0 || rep.TrialsSkipped > 0 {
			fmt.Fprintf(os.Stderr, "funnel: %d pairs screened by profit bound, %d alignments aborted early, %d trials skipped, %d built (screen %v)\n",
				rep.PairsScreened, rep.DPAborted, rep.TrialsSkipped, rep.TrialsBuilt, rep.ScreenTime.Round(time.Millisecond))
		}
		fmt.Fprintf(os.Stderr, "search: %d finder queries probed %d entries, scored %d (avg %.1f/query) in %v\n",
			rep.Search.Queries, rep.Search.Probed, rep.Search.Scanned, rep.Search.AvgScanned(), rep.Search.QueryTime)
		fmt.Fprintf(os.Stderr, "codegen: %v = build %v + SSA repair %v + simplify %v (alignment %v)\n",
			rep.CodegenTime.Round(time.Millisecond), rep.BuildTime.Round(time.Millisecond),
			rep.RepairTime.Round(time.Millisecond), rep.SimplifyTime.Round(time.Millisecond),
			rep.AlignTime.Round(time.Millisecond))
		ac := rep.AlignCache
		fmt.Fprintf(os.Stderr, "align: %d sequences interned (%d classes), %d cache hits\n",
			ac.Misses, ac.Classes, ac.Hits)
		if rep.Components > 0 {
			fmt.Fprintf(os.Stderr, "scheduler: %d components captured in parallel, %d rows transplanted, %d repaired\n",
				rep.Components, rep.Transplanted, rep.Repaired)
		}
		if rep.Families > 0 {
			sizes := make([]int, 0, len(rep.FamilySizes))
			for size := range rep.FamilySizes {
				sizes = append(sizes, size)
			}
			sort.Ints(sizes)
			var hist []string
			for _, size := range sizes {
				hist = append(hist, fmt.Sprintf("%d-way x%d", size, rep.FamilySizes[size]))
			}
			fmt.Fprintf(os.Stderr, "families: %d alive (%s), %d chains flattened this run\n",
				rep.Families, strings.Join(hist, ", "), rep.Flattened)
		}
	}
}

// startProfiles starts the CPU profile (when cpu names a file) and
// returns the function that finalizes it and writes the allocation
// profile (when mem names a file). Every mode that does work calls it
// before the work starts and runs the result before exiting, nonzero
// exits included.
func startProfiles(cpu, mem string) (write func()) {
	var cpuFile *os.File
	if cpu != "" {
		var err error
		if cpuFile, err = os.Create(cpu); err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			fatal(err)
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				fatal(err)
			}
		}
		if mem != "" {
			f, err := os.Create(mem)
			if err != nil {
				fatal(err)
			}
			runtime.GC() // materialize the steady-state live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fmerge:", err)
	os.Exit(1)
}
