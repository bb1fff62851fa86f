package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"time"
)

// manifest is the part of BENCHMARK.json the self-test and the smoke
// test read.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readManifest(path string) (*manifest, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var mf manifest
	if err := json.Unmarshal(blob, &mf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &mf, nil
}

// runSelftest checks that the benchmark agrees with itself the way the
// driver checks it: every workload is run as two interleaved series
// (A B B A A B ...) of this same binary, runs per series, run i of
// either series on seed i. For every workload and end-to-end metric it
// prints the spread of series A (interquartile range over median, as
// Python's statistics.quantiles gives the quartiles) and the share by
// which series B's median is worse than A's, next to the bound, and it
// fails if either exceeds the bound. setup_s is held to the median
// check only.
func runSelftest(path string, runs, seconds int) error {
	mf, err := readManifest(path)
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	fmt.Printf("self-test: %d workloads x 2 series x %d runs, %d s each, %s\n\n",
		len(mf.Workloads), runs, seconds, time.Now().UTC().Format("2006-01-02"))
	fmt.Printf("%-14s %-15s %12s %12s %9s %9s %7s  %s\n",
		"workload", "metric", "median A", "median B", "spread A", "B worse", "bound", "verdict")
	ok := true
	for _, w := range mf.Workloads {
		series := [2]map[string][]float64{{}, {}}
		for i := 0; i < runs; i++ {
			order := [2]int{0, 1}
			if i%2 == 1 {
				order = [2]int{1, 0}
			}
			for _, s := range order {
				res, err := runChild(self, w.Name, int64(i+1), seconds)
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", w.Name, i+1, err)
				}
				for name, m := range res.Metrics {
					series[s][name] = append(series[s][name], m.Value)
				}
			}
		}
		for _, m := range mf.EndToEnd {
			a, b := series[0][m.Name], series[1][m.Name]
			if len(a) != runs || len(b) != runs {
				return fmt.Errorf("%s: metric %s missing from a run", w.Name, m.Name)
			}
			ma, mb := median(a), median(b)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			spread := 0.0
			if runs >= 2 {
				q := quartiles(a)
				spread = (q[2] - q[0]) / ma
			}
			verdict := "ok"
			if worse > m.Bound || (m.Name != "setup_s" && spread > m.Bound) {
				verdict, ok = "OVER", false
			}
			fmt.Printf("%-14s %-15s %12.6g %12.6g %8.2f%% %8.2f%% %6.1f%%  %s\n",
				w.Name, m.Name, ma, mb, 100*spread, 100*worse, 100*m.Bound, verdict)
		}
	}
	if !ok {
		return fmt.Errorf("self-test: a spread or a median gap exceeds its bound")
	}
	fmt.Println("\nself-test passed: every spread and every median gap is within its bound")
	return nil
}

// runChild runs one end-to-end run in a process of its own, as the
// driver does, and parses the last line of its output.
func runChild(self, workload string, seed int64, seconds int) (*result, error) {
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", "0", "-out", "")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("last line of output: %w", err)
	}
	if !res.Correct {
		return nil, fmt.Errorf("%d of %d ops failed", res.Failed, res.Attempted)
	}
	return &res, nil
}

// quartiles returns the three cut points of Python's
// statistics.quantiles(xs, n=4) (the default, exclusive method), which
// is what the driver computes spreads from.
func quartiles(xs []float64) [3]float64 {
	s := slices.Sorted(slices.Values(xs))
	ld := len(s)
	var q [3]float64
	for i := 1; i < 4; i++ {
		j := min(max(i*(ld+1)/4, 1), ld-1)
		delta := i*(ld+1) - 4*j
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}
