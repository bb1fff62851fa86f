package experiments

import (
	"context"
	"fmt"

	"repro/internal/costmodel"
	"repro/internal/driver"
	"repro/internal/fmsa"
	"repro/internal/ir"
	"repro/internal/synth"
	"repro/internal/transform"
)

// Fig5 reproduces Figure 5: average normalized function size before and
// after register demotion across SPEC CPU2006 (paper GMean ≈ 1.73).
func (l *Lab) Fig5() *Table {
	t := &Table{
		ID:     "fig5",
		Title:  "Normalized function size after register demotion (before = 1.0), SPEC2006",
		Header: []string{"benchmark", "before", "after", "normalized"},
	}
	var ratios []float64
	for _, p := range synth.SPEC2006() {
		m := ir.CloneModule(l.module("spec2006", p))
		before := m.NumInstrs()
		for _, f := range m.Defined() {
			transform.RegToMem(f)
		}
		after := m.NumInstrs()
		r := float64(after) / float64(before)
		ratios = append(ratios, r)
		t.Rows = append(t.Rows, []string{p.Name, fmt.Sprint(before), fmt.Sprint(after), pct2(r)})
	}
	t.Rows = append(t.Rows, []string{"GMean", "", "", pct2(gmeanRatio(ratios))})
	return t
}

// reductionTable builds a Figure 17/18-style table: per benchmark, the
// object-size reduction of each (algorithm, threshold) series.
func (l *Lab) reductionTable(id, title, suite string, profiles []synth.Profile, target costmodel.Target, withResidue bool) *Table {
	type series struct {
		algo driver.Algorithm
		t    int
	}
	var cols []series
	for _, algo := range []driver.Algorithm{driver.FMSA, driver.SalSSA} {
		for _, th := range []int{1, 5, 10} {
			cols = append(cols, series{algo, th})
		}
	}
	t := &Table{ID: id, Title: title}
	t.Header = []string{"benchmark"}
	if withResidue {
		t.Header = append(t.Header, "FMSA-Residue")
	}
	for _, c := range cols {
		t.Header = append(t.Header, fmt.Sprintf("%s[t=%d]", c.algo, c.t))
	}
	sums := make([][]float64, len(cols))
	var residues []float64
	for _, p := range profiles {
		row := []string{p.Name}
		if withResidue {
			r := l.residue(suite, p, target)
			residues = append(residues, r)
			row = append(row, pct(r))
		}
		for i, c := range cols {
			e := l.run(suite, p, c.algo, c.t, target)
			red := e.res.Reduction()
			sums[i] = append(sums[i], red)
			row = append(row, pct(red))
		}
		t.Rows = append(t.Rows, row)
	}
	grow := []string{"GMean"}
	if withResidue {
		grow = append(grow, pct(gmeanReduction(residues)))
	}
	for i := range cols {
		grow = append(grow, pct(gmeanReduction(sums[i])))
	}
	t.Rows = append(t.Rows, grow)
	return t
}

// residue measures the FMSA Residue: the size delta of FMSA's
// demote/promote round trip alone, what an FMSA run that commits no
// merge leaves behind.
func (l *Lab) residue(suite string, p synth.Profile, target costmodel.Target) float64 {
	m := ir.CloneModule(l.module(suite, p))
	res := driver.Result{BaselineBytes: costmodel.ModuleBytes(m, target)}
	fmsa.PrepareModule(m)
	fmsa.CleanupModule(m)
	res.FinalBytes = costmodel.ModuleBytes(m, target)
	return res.Reduction()
}

// Fig17a reproduces Figure 17a (SPEC CPU2006, x86-64). Paper GMeans:
// FMSA 3.8/3.9/3.9, SalSSA 9.3/9.7/9.5.
func (l *Lab) Fig17a() *Table {
	return l.reductionTable("fig17a",
		"Object-size reduction over LTO (%), SPEC CPU2006, x86-64",
		"spec2006", synth.SPEC2006(), costmodel.X86_64, false)
}

// Fig17b reproduces Figure 17b (SPEC CPU2017). Paper GMeans: FMSA
// 4.1/4.4/4.4, SalSSA 7.9/8.8/9.2.
func (l *Lab) Fig17b() *Table {
	return l.reductionTable("fig17b",
		"Object-size reduction over LTO (%), SPEC CPU2017, x86-64",
		"spec2017", synth.SPEC2017(), costmodel.X86_64, false)
}

// Fig18 reproduces Figure 18 (MiBench, ARM Thumb, including FMSA
// Residue). Paper GMeans: residue 0.1, FMSA 0.8, SalSSA 1.4-1.6.
func (l *Lab) Fig18() *Table {
	return l.reductionTable("fig18",
		"Object-size reduction over LTO (%), MiBench, ARM Thumb",
		"mibench", synth.MiBench(), costmodel.Thumb, true)
}

// Table1 reproduces Table 1: MiBench module statistics and the number of
// merge operations applied at t=1.
func (l *Lab) Table1() *Table {
	t := &Table{
		ID:     "table1",
		Title:  "MiBench: functions, sizes and merge operations (t=1)",
		Header: []string{"benchmark", "#Fns", "Min/Avg/Max size", "FMSA[t=1]", "SalSSA[t=1]", "paper FMSA", "paper SalSSA"},
	}
	for _, p := range synth.MiBench() {
		m := l.module("mibench", p)
		st := synth.ModuleStats(m)
		ef := l.run("mibench", p, driver.FMSA, 1, costmodel.Thumb)
		es := l.run("mibench", p, driver.SalSSA, 1, costmodel.Thumb)
		paper := synth.PaperMiBenchMerges[p.Name]
		t.Rows = append(t.Rows, []string{
			p.Name,
			fmt.Sprint(st.Funcs),
			fmt.Sprintf("%d/%.1f/%d", st.MinSize, st.AvgSize, st.MaxSize),
			fmt.Sprint(len(ef.res.Merges)),
			fmt.Sprint(len(es.res.Merges)),
			fmt.Sprint(paper[0]),
			fmt.Sprint(paper[1]),
		})
	}
	return t
}

// Fig19 reproduces Figure 19: each profitable SalSSA[t=1] merge on djpeg
// committed in isolation, and its individual contribution to final size.
// djpeg is planned once; each of the first plan entries is then applied
// alone to a fresh copy of the module.
func (l *Lab) Fig19() *Table {
	t := &Table{
		ID:     "fig19",
		Title:  "Per-merge size contribution (%), djpeg, SalSSA[t=1], ARM Thumb",
		Header: []string{"merge", "pair", "contribution (%)"},
	}
	p, ok := synth.ByName(synth.MiBench(), "djpeg")
	if !ok {
		return t
	}
	pristine := l.module("mibench", p)
	base := costmodel.ModuleBytes(pristine, costmodel.Thumb)
	cfg := driver.Config{Algorithm: driver.SalSSA, Threshold: 1, Target: costmodel.Thumb}
	plan := mustSession(pristine, cfg, func(s *driver.Session) (*driver.Plan, error) {
		return s.Plan(context.Background())
	})
	// Bound the isolation study; the paper plots ~28 bars.
	for i, pm := range plan.Merges[:min(len(plan.Merges), 16)] {
		one := &driver.Plan{Algorithm: plan.Algorithm, Threshold: plan.Threshold, Merges: []driver.PlannedMerge{pm}}
		res := mustSession(pristine, cfg, func(s *driver.Session) (*driver.Result, error) {
			return s.Apply(context.Background(), one)
		})
		contribution := 100 * float64(base-res.FinalBytes) / float64(base)
		t.Rows = append(t.Rows, []string{fmt.Sprint(i), pm.F1 + "+" + pm.F2, pct2(contribution)})
	}
	return t
}

// mustSession runs fn on a session over a fresh copy of m. Nothing but
// a driver bug fails a session over an untouched copy, so an error
// panics.
func mustSession[T any](m *ir.Module, cfg driver.Config, fn func(*driver.Session) (T, error)) T {
	s, err := driver.OpenSession(context.Background(), ir.CloneModule(m), cfg)
	if err == nil {
		defer s.Close()
		var out T
		if out, err = fn(s); err == nil {
			return out
		}
	}
	panic(fmt.Sprintf("experiments: %v", err))
}

// Fig20 reproduces Figure 20: the impact of phi-node coalescing (FMSA vs
// SalSSA-NoPC vs SalSSA, t=1, SPEC2006). Paper GMeans: 3.8 / 8.1 / 9.3.
func (l *Lab) Fig20() *Table {
	t := &Table{
		ID:     "fig20",
		Title:  "Phi-node coalescing impact: reduction (%), SPEC2006, t=1",
		Header: []string{"benchmark", "FMSA", "SalSSA-NoPC", "SalSSA"},
	}
	var rf, rn, rs []float64
	for _, p := range synth.SPEC2006() {
		ef := l.run("spec2006", p, driver.FMSA, 1, costmodel.X86_64)
		en := l.run("spec2006", p, driver.SalSSANoPC, 1, costmodel.X86_64)
		es := l.run("spec2006", p, driver.SalSSA, 1, costmodel.X86_64)
		rf = append(rf, ef.res.Reduction())
		rn = append(rn, en.res.Reduction())
		rs = append(rs, es.res.Reduction())
		t.Rows = append(t.Rows, []string{p.Name,
			pct(ef.res.Reduction()), pct(en.res.Reduction()), pct(es.res.Reduction())})
	}
	t.Rows = append(t.Rows, []string{"GMean",
		pct(gmeanReduction(rf)), pct(gmeanReduction(rn)), pct(gmeanReduction(rs))})
	return t
}

// Fig21 reproduces Figure 21: profitable merge operations at t=1 (paper:
// FMSA 9271 vs SalSSA 12224, +31%).
func (l *Lab) Fig21() *Table {
	t := &Table{
		ID:     "fig21",
		Title:  "Profitable merge operations, SPEC2006, t=1",
		Header: []string{"benchmark", "FMSA", "SalSSA"},
	}
	totalF, totalS := 0, 0
	for _, p := range synth.SPEC2006() {
		ef := l.run("spec2006", p, driver.FMSA, 1, costmodel.X86_64)
		es := l.run("spec2006", p, driver.SalSSA, 1, costmodel.X86_64)
		nf, ns := len(ef.res.Merges), len(es.res.Merges)
		totalF += nf
		totalS += ns
		t.Rows = append(t.Rows, []string{p.Name, fmt.Sprint(nf), fmt.Sprint(ns)})
	}
	delta := "n/a"
	if totalF > 0 {
		delta = fmt.Sprintf("+%.0f%%", 100*float64(totalS-totalF)/float64(totalF))
	}
	t.Rows = append(t.Rows, []string{"Total (SalSSA vs FMSA " + delta + ")", fmt.Sprint(totalF), fmt.Sprint(totalS)})
	return t
}

// Fig22 reproduces Figure 22: peak merge-time memory (alignment matrix,
// MB) per SPEC2006 benchmark at t=1. Paper GMean: FMSA 153.5 MB vs
// SalSSA 94.8 MB; 403.gcc peaks at 6.5 GB vs 2.4 GB.
func (l *Lab) Fig22() *Table {
	t := &Table{
		ID:     "fig22",
		Title:  "Peak alignment-matrix memory (MB), SPEC2006, t=1",
		Header: []string{"benchmark", "FMSA", "SalSSA", "ratio"},
	}
	var ratios, fpeaks, speaks []float64
	for _, p := range synth.SPEC2006() {
		ef := l.run("spec2006", p, driver.FMSA, 1, costmodel.X86_64)
		es := l.run("spec2006", p, driver.SalSSA, 1, costmodel.X86_64)
		fm := float64(ef.res.PeakMatrixBytes) / (1 << 20)
		sm := float64(es.res.PeakMatrixBytes) / (1 << 20)
		r := 0.0
		if sm > 0 {
			r = fm / sm
		}
		ratios = append(ratios, r)
		fpeaks = append(fpeaks, fm)
		speaks = append(speaks, sm)
		t.Rows = append(t.Rows, []string{p.Name, pct2(fm), pct2(sm), pct2(r)})
	}
	t.Rows = append(t.Rows, []string{"GMean", pct2(gmeanRatio(fpeaks)), pct2(gmeanRatio(speaks)), pct2(gmeanRatio(ratios))})
	return t
}

// Fig23 reproduces Figure 23: SalSSA's speedup over FMSA on the
// alignment and code-generation phases (paper GMean: 3.16x / 1.68x).
func (l *Lab) Fig23() *Table {
	t := &Table{
		ID:     "fig23",
		Title:  "Phase speedup of SalSSA over FMSA (t=1), SPEC2006",
		Header: []string{"benchmark", "alignment", "codegen"},
	}
	var sa, sc []float64
	for _, p := range synth.SPEC2006() {
		ef := l.run("spec2006", p, driver.FMSA, 1, costmodel.X86_64)
		es := l.run("spec2006", p, driver.SalSSA, 1, costmodel.X86_64)
		alignSpeedup := safeRatio(float64(ef.res.AlignTime), float64(es.res.AlignTime))
		cgSpeedup := safeRatio(float64(ef.res.CodegenTime), float64(es.res.CodegenTime))
		sa = append(sa, alignSpeedup)
		sc = append(sc, cgSpeedup)
		t.Rows = append(t.Rows, []string{p.Name, pct2(alignSpeedup), pct2(cgSpeedup)})
	}
	t.Rows = append(t.Rows, []string{"GMean", pct2(gmeanRatio(sa)), pct2(gmeanRatio(sc))})
	return t
}

func safeRatio(a, b float64) float64 {
	if b <= 0 {
		return 1
	}
	return a / b
}

// Fig24 reproduces Figure 24: end-to-end compile time normalized to a
// compilation without function merging (paper GMeans: FMSA 1.14/1.44/
// 1.66, SalSSA 1.05/1.12/1.18 for t=1/5/10). Our "rest of compilation"
// is far cheaper than LLVM's full -O2+LTO back end, so absolute
// normalized values exceed the paper's; the FMSA-to-SalSSA ratio is the
// comparable shape.
func (l *Lab) Fig24() *Table {
	t := &Table{
		ID:     "fig24",
		Title:  "Normalized compile time (no-merging = 1.0), SPEC2006",
		Header: []string{"benchmark", "FMSA[t=1]", "FMSA[t=5]", "FMSA[t=10]", "SalSSA[t=1]", "SalSSA[t=5]", "SalSSA[t=10]"},
	}
	cols := []struct {
		algo driver.Algorithm
		t    int
	}{
		{driver.FMSA, 1}, {driver.FMSA, 5}, {driver.FMSA, 10},
		{driver.SalSSA, 1}, {driver.SalSSA, 5}, {driver.SalSSA, 10},
	}
	sums := make([][]float64, len(cols))
	for _, p := range synth.SPEC2006() {
		row := []string{p.Name}
		for i, c := range cols {
			e := l.run("spec2006", p, c.algo, c.t, costmodel.X86_64)
			norm := 1.0
			if e.baseTime > 0 {
				norm = float64(e.baseTime+e.res.TotalTime) / float64(e.baseTime)
			}
			sums[i] = append(sums[i], norm)
			row = append(row, pct2(norm))
		}
		t.Rows = append(t.Rows, row)
	}
	grow := []string{"GMean"}
	for i := range cols {
		grow = append(grow, pct2(gmeanRatio(sums[i])))
	}
	t.Rows = append(t.Rows, grow)
	return t
}

// Fig25 reproduces Figure 25: runtime (dynamic instruction count) of the
// merged binaries normalized to no merging (paper GMean: FMSA ~1.02,
// SalSSA ~1.04).
func (l *Lab) Fig25() *Table {
	t := &Table{
		ID:     "fig25",
		Title:  "Normalized runtime (dynamic instructions; no-merging = 1.0), SPEC2006, t=1",
		Header: []string{"benchmark", "FMSA[t=1]", "SalSSA[t=1]"},
	}
	var rf, rs []float64
	for _, p := range synth.SPEC2006() {
		pristine := l.module("spec2006", p)
		names := workloadNames(pristine, 24)
		base := execStepsByName(pristine, names)
		ef := l.run("spec2006", p, driver.FMSA, 1, costmodel.X86_64)
		es := l.run("spec2006", p, driver.SalSSA, 1, costmodel.X86_64)
		nf := safeRatio(float64(execStepsByName(ef.post, names)), float64(base))
		ns := safeRatio(float64(execStepsByName(es.post, names)), float64(base))
		rf = append(rf, nf)
		rs = append(rs, ns)
		t.Rows = append(t.Rows, []string{p.Name, pct2(nf), pct2(ns)})
	}
	t.Rows = append(t.Rows, []string{"GMean", pct2(gmeanRatio(rf)), pct2(gmeanRatio(rs))})
	return t
}

// ByID returns the experiment with the given id.
func (l *Lab) ByID(id string) (*Table, bool) {
	switch id {
	case "fig5":
		return l.Fig5(), true
	case "fig17a":
		return l.Fig17a(), true
	case "fig17b":
		return l.Fig17b(), true
	case "fig18":
		return l.Fig18(), true
	case "table1":
		return l.Table1(), true
	case "fig19":
		return l.Fig19(), true
	case "fig20":
		return l.Fig20(), true
	case "fig21":
		return l.Fig21(), true
	case "fig22":
		return l.Fig22(), true
	case "fig23":
		return l.Fig23(), true
	case "fig24":
		return l.Fig24(), true
	case "fig25":
		return l.Fig25(), true
	}
	return nil, false
}

// IDs lists the available experiment ids in paper order.
func IDs() []string {
	return []string{"fig5", "fig17a", "fig17b", "fig18", "table1", "fig19",
		"fig20", "fig21", "fig22", "fig23", "fig24", "fig25"}
}
