// scale.go implements fmerge's -scale benchmark mode: each requested
// corpus tier is streamed batch-by-batch into a session, fully
// optimized, and accounted — wall-clock per
// phase, peak sampled heap, post-index live heap, bytes saved and the
// finder's query work — one row per tier. CI runs the 10k tier on
// every push and archives the JSON as BENCH_scale.json; the 1M tier is
// a manually-dispatched job.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	repro "repro"
	"repro/internal/corpus"
	"repro/internal/ir"
)

// scaleRun is one tier's measurement in the artifact.
type scaleRun struct {
	Tier  string `json:"tier"`
	Funcs int    `json:"funcs"`

	GenerateSecs float64 `json:"generate_secs"`
	IndexSecs    float64 `json:"index_secs"`
	OptimizeSecs float64 `json:"optimize_secs"`
	WallSecs     float64 `json:"wall_secs"`

	// Optimize-phase breakdown: candidate lookup, funnel screening,
	// alignment DP, trial materialization (clone + codegen + simplify)
	// and the commit-steps.
	QuerySecs  float64 `json:"query_secs"`
	ScreenSecs float64 `json:"screen_secs"`
	AlignSecs  float64 `json:"align_secs"`
	TrialSecs  float64 `json:"trial_secs"`
	CommitSecs float64 `json:"commit_secs"`
	// TrialSecs again, by where it went: SSA repair inside the generator,
	// the clean-up of the finished body, and everything else (the
	// generator up to repair, clones, pricing).
	BuildSecs    float64 `json:"build_secs"`
	RepairSecs   float64 `json:"repair_secs"`
	SimplifySecs float64 `json:"simplify_secs"`

	// Planning-funnel counters (zero when the funnel is off).
	PairsScreened int `json:"pairs_screened,omitempty"`
	TrialsBuilt   int `json:"trials_built,omitempty"`
	TrialsSkipped int `json:"trials_skipped,omitempty"`

	// PeakHeapBytes is the maximum sampled runtime.MemStats.HeapInuse
	// over the whole run; IndexedHeapBytes is HeapAlloc after indexing
	// completes and a forced GC — live bytes, module plus indexes.
	PeakHeapBytes    uint64 `json:"peak_heap_bytes"`
	IndexedHeapBytes uint64 `json:"indexed_heap_bytes"`
	// What the optimize run's trials allocated while being built, and
	// the collector's CPU time over the run (process-wide deltas; see
	// driver.Counters).
	TrialAllocMB float64 `json:"trial_alloc_mb"`
	GCCPUSecs    float64 `json:"gc_cpu_secs"`

	BaselineBytes int `json:"baseline_bytes"`
	FinalBytes    int `json:"final_bytes"`
	SavedBytes    int `json:"saved_bytes"`
	Merges        int `json:"merges"`
	Folds         int `json:"folds"`

	// Finder work over the optimize phase: entries the size walk
	// visited per query, and how many of those were distance-scored.
	ProbedPerQuery  float64 `json:"probed_per_query"`
	ScannedPerQuery float64 `json:"scanned_per_query"`
}

type scaleReport struct {
	Runs []scaleRun `json:"runs"`
}

// runScale runs each tier once and writes the JSON artifact.
func runScale(ctx context.Context, tiers []string, out string, verbose bool) error {
	var rep scaleReport
	for _, tier := range tiers {
		cfg, err := corpus.Tier(tier)
		if err != nil {
			return err
		}
		run, err := scaleOnce(ctx, tier, cfg, verbose)
		if err != nil {
			return err
		}
		rep.Runs = append(rep.Runs, *run)
	}
	blob, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if out == "-" {
		_, err = os.Stdout.Write(blob)
		return err
	}
	if err := os.WriteFile(out, blob, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "scale: wrote %d runs to %s\n", len(rep.Runs), out)
	return nil
}

// scaleOnce streams one corpus into a fresh session and optimizes it,
// measuring as it goes. The generate and index phases interleave (that
// is the point of the streaming generator: no tier-sized scratch), so
// their times are accumulated separately across batches.
func scaleOnce(ctx context.Context, tier string, cfg corpus.Config, verbose bool) (*scaleRun, error) {
	opt, err := repro.New(
		repro.WithDupFold(true),
		// A corpus is optimized once, so nothing would ever flatten:
		// skip the retention of original bodies that powers it.
		repro.WithMaxFamily(2),
	)
	if err != nil {
		return nil, err
	}

	runtime.GC() // settle the previous run's garbage before sampling
	sampler := startHeapSampler()
	wall0 := time.Now()

	m := ir.NewModule()
	st := corpus.NewStream(m, cfg)
	s, err := opt.Open(ctx, m)
	if err != nil {
		return nil, err
	}
	defer s.Close()

	var genDur, idxDur time.Duration
	for {
		t0 := time.Now()
		batch := st.Next()
		genDur += time.Since(t0)
		if batch == nil {
			break
		}
		names := make([]string, len(batch))
		for i, f := range batch {
			names[i] = f.Name()
		}
		t1 := time.Now()
		if err := s.UpdateBatch(ctx, names, nil); err != nil {
			return nil, err
		}
		// Flush per batch: the streaming consumer's shape — each batch is
		// re-indexed in one pass as it arrives, so index cost lands here
		// instead of inside the first Optimize.
		if err := s.Flush(); err != nil {
			return nil, err
		}
		idxDur += time.Since(t1)
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	indexed := ms.HeapAlloc

	opt0 := time.Now()
	r, err := s.Optimize(ctx)
	optDur := time.Since(opt0)
	if err != nil {
		return nil, err
	}
	wall := time.Since(wall0)
	peak := sampler.stopPeak()

	run := &scaleRun{
		Tier:  tier,
		Funcs: cfg.Funcs,

		GenerateSecs: genDur.Seconds(),
		IndexSecs:    idxDur.Seconds(),
		OptimizeSecs: optDur.Seconds(),
		WallSecs:     wall.Seconds(),

		QuerySecs:  r.Search.QueryTime.Seconds(),
		ScreenSecs: r.ScreenTime.Seconds(),
		AlignSecs:  r.AlignTime.Seconds(),
		TrialSecs:  r.CodegenTime.Seconds(),
		CommitSecs: r.CommitTime.Seconds(),

		BuildSecs:    r.BuildTime.Seconds(),
		RepairSecs:   r.RepairTime.Seconds(),
		SimplifySecs: r.SimplifyTime.Seconds(),

		PairsScreened: r.PairsScreened,
		TrialsBuilt:   r.TrialsBuilt,
		TrialsSkipped: r.TrialsSkipped,

		PeakHeapBytes:    peak,
		IndexedHeapBytes: indexed,
		TrialAllocMB:     float64(r.TrialAllocBytes) / (1 << 20),
		GCCPUSecs:        r.GCTime.Seconds(),

		BaselineBytes: r.BaselineBytes,
		FinalBytes:    r.FinalBytes,
		SavedBytes:    r.BaselineBytes - r.FinalBytes,
		Merges:        len(r.Merges),
		Folds:         len(r.Folds),

		ScannedPerQuery: r.Search.AvgScanned(),
	}
	if q := r.Search.Queries; q > 0 {
		run.ProbedPerQuery = float64(r.Search.Probed) / float64(q)
	}
	if verbose {
		fmt.Fprintf(os.Stderr,
			"scale[%s]: gen %.1fs index %.1fs optimize %.1fs (query %.1fs screen %.1fs align %.1fs trial %.1fs = build %.1fs + repair %.1fs + simplify %.1fs, commit %.1fs) | finder %.0f probed, %.0f scored per query | funnel %d screened, %d skipped, %d built | live heap %s, peak %s, trials allocated %.1fMiB, GC %.2fs CPU | saved %d bytes (%d merges, %d folds)\n",
			tier, run.GenerateSecs, run.IndexSecs, run.OptimizeSecs,
			run.QuerySecs, run.ScreenSecs, run.AlignSecs, run.TrialSecs,
			run.BuildSecs, run.RepairSecs, run.SimplifySecs, run.CommitSecs,
			run.ProbedPerQuery, run.ScannedPerQuery,
			run.PairsScreened, run.TrialsSkipped, run.TrialsBuilt,
			fmtBytes(indexed), fmtBytes(peak), run.TrialAllocMB, run.GCCPUSecs, run.SavedBytes, run.Merges, run.Folds)
	}
	return run, nil
}

// heapSampler tracks peak HeapInuse on a 50ms tick. ReadMemStats
// briefly stops the world, but at 20Hz the overhead is noise next to
// the alignment DP the benchmark is measuring.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak atomic.Uint64
}

func startHeapSampler() *heapSampler {
	hs := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(hs.done)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		var ms runtime.MemStats
		for {
			runtime.ReadMemStats(&ms)
			if ms.HeapInuse > hs.peak.Load() {
				hs.peak.Store(ms.HeapInuse)
			}
			select {
			case <-hs.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return hs
}

// stopPeak takes a final sample, stops the sampler and returns the peak.
func (hs *heapSampler) stopPeak() uint64 {
	close(hs.stop)
	<-hs.done
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapInuse > hs.peak.Load() {
		hs.peak.Store(ms.HeapInuse)
	}
	return hs.peak.Load()
}

func fmtBytes(n uint64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	default:
		return fmt.Sprintf("%dKiB", n>>10)
	}
}
