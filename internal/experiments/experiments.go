// Package experiments regenerates every table and figure of the paper's
// evaluation (§3 Figure 5, §5 Figures 17-25 and Table 1) on the
// synthetic benchmark suites. Each experiment returns a Table whose rows
// mirror the series the paper plots; cmd/repro prints them and
// EXPERIMENTS.md records paper-versus-measured values.
package experiments

import (
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/costmodel"
	"repro/internal/driver"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/synth"
	"repro/internal/transform"
)

// Table is a printable experiment result.
type Table struct {
	ID     string // e.g. "fig17a"
	Title  string
	Header []string
	Rows   [][]string
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteString("\n")
	}
	line(t.Header)
	for _, r := range t.Rows {
		line(r)
	}
	return sb.String()
}

// gmeanRatio returns the geometric mean of the ratios.
func gmeanRatio(ratios []float64) float64 {
	if len(ratios) == 0 {
		return 1
	}
	s := 0.0
	for _, r := range ratios {
		if r <= 0 {
			r = 1e-9
		}
		s += math.Log(r)
	}
	return math.Exp(s / float64(len(ratios)))
}

// gmeanReduction converts per-benchmark size reductions (percent) into
// the geometric-mean reduction the paper reports.
func gmeanReduction(reductions []float64) float64 {
	ratios := make([]float64, len(reductions))
	for i, r := range reductions {
		ratios[i] = 1 - r/100
	}
	return 100 * (1 - gmeanRatio(ratios))
}

func pct(v float64) string  { return fmt.Sprintf("%.1f", v) }
func pct2(v float64) string { return fmt.Sprintf("%.2f", v) }

// runKey identifies a cached merging run.
type runKey struct {
	suite string
	bench string
	algo  driver.Algorithm
	t     int
}

// runEntry caches a merging run together with the modules around it.
type runEntry struct {
	res      *driver.Result
	pre      *ir.Module // pristine module (pre-merging clone)
	post     *ir.Module // module after merging
	baseTime time.Duration
}

// Lab owns the cached runs for one process (all experiments share
// modules and merge results where the paper's figures overlap).
type Lab struct {
	cache map[runKey]*runEntry
	// Scale divides suite function counts for quick runs (1 = full).
	Scale int
	// DupFold folds structurally identical functions before alignment.
	// Off by default: the paper's pipeline aligns clone families too.
	DupFold bool
	// Target for SPEC experiments (x86-64); MiBench uses Thumb.
	seedModules map[string]*ir.Module
}

// NewLab returns an empty lab at full scale.
func NewLab() *Lab {
	return &Lab{cache: map[runKey]*runEntry{}, Scale: 1, seedModules: map[string]*ir.Module{}}
}

// scaleProfile reduces a profile's function count by the lab scale.
func (l *Lab) scaleProfile(p synth.Profile) synth.Profile {
	if l.Scale > 1 {
		p.Funcs = max(4, p.Funcs/l.Scale)
		if p.Funcs < 2*p.FamilySize {
			p.FamilySize = 2
		}
	}
	return p
}

// module returns the pristine generated module for a profile (cached).
func (l *Lab) module(suite string, p synth.Profile) *ir.Module {
	key := suite + "/" + p.Name
	if m, ok := l.seedModules[key]; ok {
		return m
	}
	m := synth.Generate(l.scaleProfile(p))
	l.seedModules[key] = m
	return m
}

// run executes (or retrieves) one merging run.
func (l *Lab) run(suite string, p synth.Profile, algo driver.Algorithm, t int, target costmodel.Target) *runEntry {
	key := runKey{suite: suite, bench: p.Name, algo: algo, t: t}
	if e, ok := l.cache[key]; ok {
		return e
	}
	pristine := l.module(suite, p)
	work := ir.CloneModule(pristine)

	// Baseline "rest of the compilation" cost: clean-up plus size
	// lowering over the unmerged module (the denominator of Figure 24).
	t0 := time.Now()
	baselineClone := ir.CloneModule(pristine)
	transform.SimplifyModule(baselineClone)
	costmodel.ModuleBytes(baselineClone, target)
	baseTime := time.Since(t0)

	res := driver.Run(work, driver.Config{
		Algorithm: algo,
		Threshold: t,
		Target:    target,
		DupFold:   l.DupFold,
	})
	e := &runEntry{res: res, pre: pristine, post: work, baseTime: baseTime}
	l.cache[key] = e
	return e
}

// execSteps interprets up to n functions of m (by module order) on
// deterministic inputs and returns total dynamic instructions.
func execSteps(m *ir.Module, n int) int64 {
	var total int64
	count := 0
	for _, f := range m.Funcs {
		if f.IsDecl() {
			continue
		}
		if count >= n {
			break
		}
		count++
		env := interp.NewEnv()
		env.MaxSteps = 1 << 18
		for seed := int64(1); seed <= 2; seed++ {
			out := interp.Run(env, f, interp.ArgsFor(f, seed))
			total += int64(out.Steps)
		}
	}
	return total
}

// execStepsByName runs the named functions (so pre/post modules execute
// the same logical workload).
func execStepsByName(m *ir.Module, names []string) int64 {
	var total int64
	for _, name := range names {
		f := m.FuncByName(name)
		if f == nil || f.IsDecl() {
			continue
		}
		env := interp.NewEnv()
		env.MaxSteps = 1 << 18
		for seed := int64(1); seed <= 2; seed++ {
			out := interp.Run(env, f, interp.ArgsFor(f, seed))
			total += int64(out.Steps)
		}
	}
	return total
}

// workloadNames picks the first n defined function names of a module.
func workloadNames(m *ir.Module, n int) []string {
	var names []string
	for _, f := range m.Funcs {
		if f.IsDecl() {
			continue
		}
		names = append(names, f.Name())
		if len(names) == n {
			break
		}
	}
	return names
}
