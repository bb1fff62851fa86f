package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"slices"
	"time"
)

const mib = 1 << 20

// rep is what one timed section measured.
type rep struct {
	SetupS     float64 `json:"setup_s"`
	OptimizeS  float64 `json:"optimize_s"`
	AllocMB    float64 `json:"alloc_mb"`
	PeakHeapMB float64 `json:"peak_heap_mb"`
	gc         gcDelta
}

// gcDelta is the collector's share of a timed section.
type gcDelta struct {
	cycles  uint32
	cpuS    float64
	pauseMS float64
	mallocs uint64
}

// heapSampler tracks the peak of heap-in-use (objects plus unused
// spans, MemStats.HeapInuse) on a 5 ms tick. It reads runtime/metrics,
// which unlike ReadMemStats does not stop the world. Under
// GOMAXPROCS(1) the tick runs when the scheduler preempts the timed
// goroutine, so the effective period is the larger of 5 ms and the
// preemption quantum.
type heapSampler struct {
	stop chan struct{}
	done chan uint64
}

var heapInuse = []string{"/memory/classes/heap/objects:bytes", "/memory/classes/heap/unused:bytes"}

func readHeapInuse(s []metrics.Sample) uint64 {
	metrics.Read(s)
	return s[0].Value.Uint64() + s[1].Value.Uint64()
}

func startHeapSampler() *heapSampler {
	hs := &heapSampler{stop: make(chan struct{}), done: make(chan uint64)}
	go func() {
		s := []metrics.Sample{{Name: heapInuse[0]}, {Name: heapInuse[1]}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		var peak uint64
		for {
			peak = max(peak, readHeapInuse(s))
			select {
			case <-hs.stop:
				hs.done <- max(peak, readHeapInuse(s))
				return
			case <-tick.C:
			}
		}
	}()
	return hs
}

// stopPeak stops the sampler, waits for it and returns the peak.
func (hs *heapSampler) stopPeak() uint64 {
	close(hs.stop)
	return <-hs.done
}

const gcCPU = "/cpu/classes/gc/total:cpu-seconds"

func readGCCPU() float64 {
	s := []metrics.Sample{{Name: gcCPU}}
	metrics.Read(s)
	return s[0].Value.Float64()
}

// timeSection runs one timed section: collect first so every rep starts
// from the same heap, then measure wall time, bytes allocated, peak
// heap and the collector's share.
func timeSection(run func() error) (rep, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gc0 := readGCCPU()
	hs := startHeapSampler()
	t0 := time.Now()
	err := run()
	d := time.Since(t0)
	peak := hs.stopPeak()
	runtime.ReadMemStats(&m1)
	return rep{
		OptimizeS:  d.Seconds(),
		AllocMB:    float64(m1.TotalAlloc-m0.TotalAlloc) / mib,
		PeakHeapMB: float64(peak) / mib,
		gc: gcDelta{
			cycles:  m1.NumGC - m0.NumGC,
			cpuS:    readGCCPU() - gc0,
			pauseMS: float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6,
			mallocs: m1.Mallocs - m0.Mallocs,
		},
	}, err
}

// measureOnce sets a workload up (setup_s) and times its section with
// tracing on or off. Set-up, like the section, starts from a collected
// heap, so the previous rep's garbage does not decide when it collects.
func measureOnce(w *workload, c config, tr *tracer) (rep, *instance, error) {
	runtime.GC()
	t0 := time.Now()
	inst, err := w.prepare(c)
	setup := time.Since(t0).Seconds()
	if err != nil {
		return rep{}, nil, fmt.Errorf("setup: %w", err)
	}
	r, err := timeSection(func() error { return inst.run(tr) })
	r.SetupS = setup
	return r, inst, err
}

// runEndToEnd is the --trace 0 run: c.reps identical closed-loop reps
// with tracing off, then the oracle over the last rep's outputs.
// Interference from neighbours only ever adds time, so optimize_s is
// the minimum over reps; memory and the short, allocation-bound set-up
// report the median.
func runEndToEnd(w *workload, c config) (*result, error) {
	var reps []rep
	var setup, optimize, alloc, peak []float64
	var inst *instance
	for i := 0; i < c.reps; i++ {
		// Drop the previous rep's modules before generating the next, so
		// every rep is timed over the same live heap.
		inst = nil
		r, in, err := measureOnce(w, c, nil)
		if err != nil {
			return nil, err
		}
		reps, inst = append(reps, r), in
		setup, optimize = append(setup, r.SetupS), append(optimize, r.OptimizeS)
		alloc, peak = append(alloc, r.AllocMB), append(peak, r.PeakHeapMB)
	}
	v, err := verify(inst, c.seed)
	if err != nil {
		return nil, err
	}
	res := &result{
		Correct:   v.failed == 0,
		Attempted: v.ops,
		Failed:    v.failed,
		Metrics: map[string]metric{
			"setup_s":        {median(setup), "s"},
			"optimize_s":     {slices.Min(optimize), "s"},
			"alloc_mb":       {median(alloc), "MiB"},
			"peak_heap_mb":   {median(peak), "MiB"},
			"final_size_pct": {v.finalSizePct, "%"},
			"dyn_instr_pct":  {v.dynInstrPct, "%"},
		},
	}
	err = writeJSON(c.out, "detail-"+w.name+".json", map[string]any{
		"workload": w.name, "seed": c.seed, "reps": reps, "units": v.rows, "mismatches": v.mismatches,
	})
	return res, err
}

func median(xs []float64) float64 {
	s := slices.Sorted(slices.Values(xs))
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
