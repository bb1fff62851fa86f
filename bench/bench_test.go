package main

import (
	"math"
	"testing"
)

// TestSmoke runs every workload at 1/20 scale with one rep, end to end
// and traced, twice. It holds the benchmark to what BENCHMARK.json
// promises (the workloads, and every metric under its name and unit)
// and to being a function of the seed alone: the exact metrics and the
// driver's counters repeat bit for bit, allocation within 1% (the
// alignment DP slabs are pooled, and when a collection empties the pool
// is not the program's to decide), and the oracle finds nothing wrong.
func TestSmoke(t *testing.T) {
	pinRuntime()
	mf, err := readManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	ws := workloads()
	if len(ws) != len(mf.Workloads) {
		t.Fatalf("%d workloads, BENCHMARK.json names %d", len(ws), len(mf.Workloads))
	}
	c := config{seed: 1, reps: 1, scale: 20, out: t.TempDir()}
	for i, w := range ws {
		if w.name != mf.Workloads[i].Name {
			t.Errorf("workload %d is %q, BENCHMARK.json names %q", i, w.name, mf.Workloads[i].Name)
		}
		t.Run(w.name, func(t *testing.T) {
			var e2e, layers [2]*result
			for i := range e2e {
				if e2e[i], err = runEndToEnd(w, c); err != nil {
					t.Fatal(err)
				}
				if layers[i], err = runTraced(w, c); err != nil {
					t.Fatal(err)
				}
				for _, r := range []*result{e2e[i], layers[i]} {
					if r.Failed != 0 || !r.Correct || r.Attempted < 1 {
						t.Errorf("run %d: %d of %d ops failed", i, r.Failed, r.Attempted)
					}
				}
			}
			sameNames(t, "end_to_end", e2e[0].Metrics, mf.EndToEnd)
			sameNames(t, "per_layer", layers[0].Metrics, mf.PerLayer)
			for _, name := range []string{"final_size_pct", "dyn_instr_pct"} {
				if a, b := e2e[0].Metrics[name].Value, e2e[1].Metrics[name].Value; a != b {
					t.Errorf("%s differs between runs: %v vs %v", name, a, b)
				}
			}
			for _, name := range []string{"driver.merges", "driver.folds", "driver.trials_built", "driver.attempts"} {
				if a, b := layers[0].Metrics[name].Value, layers[1].Metrics[name].Value; a != b {
					t.Errorf("%s differs between runs: %v vs %v", name, a, b)
				}
			}
			a, b := e2e[0].Metrics["alloc_mb"].Value, e2e[1].Metrics["alloc_mb"].Value
			if math.Abs(a-b) > 0.01*a {
				t.Errorf("alloc_mb differs by more than 1%%: %v vs %v", a, b)
			}
		})
	}
}

// sameNames checks that a run reported exactly the metrics BENCHMARK.json
// lists in one section, each under its unit.
func sameNames(t *testing.T, section string, got map[string]metric, want []manifestMetric) {
	t.Helper()
	seen := map[string]bool{}
	for _, m := range want {
		if seen[m.Name] {
			t.Errorf("%s: BENCHMARK.json lists %s twice", section, m.Name)
		}
		seen[m.Name] = true
		g, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: %s is in BENCHMARK.json but was not reported", section, m.Name)
		case g.Unit != m.Unit:
			t.Errorf("%s: %s reported in %q, BENCHMARK.json says %q", section, m.Name, g.Unit, m.Unit)
		}
	}
	for name := range got {
		if !seen[name] {
			t.Errorf("%s: %s was reported but is not in BENCHMARK.json", section, name)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	got := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	want := [3]float64{3.5, 13.5, 31.0}
	if got != want {
		t.Errorf("quartiles = %v, want %v", got, want)
	}
}
