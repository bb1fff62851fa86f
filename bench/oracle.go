package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	repro "repro"
	"repro/internal/interp"
	"repro/internal/ir"
)

const (
	// oracleSample is the most rewritten functions the differential
	// executes; oracleArgSeeds the argument vectors each runs on.
	oracleSample   = 500
	oracleArgSeeds = 2
	// The original runs under oracleSteps; an execution that exhausts
	// it is not comparable and is left out. The rewritten function gets
	// a budget no merge overhead can exhaust, so a rewritten run never
	// fails just because it pays a few more steps than the original.
	oracleSteps      = 1 << 16
	oracleStepsAfter = 1 << 20
)

// unitRow is one output module's line in the detail file.
type unitRow struct {
	Name          string  `json:"name"`
	BaselineBytes int     `json:"baseline_bytes"`
	FinalBytes    int     `json:"final_bytes"`
	Merges        int     `json:"merges"`
	Folds         int     `json:"folds"`
	OptimizeS     float64 `json:"optimize_s"`
}

// verdict is the oracle's outcome over one instance.
type verdict struct {
	ops, failed  int
	finalSizePct float64 // geometric mean over units of 100*final/baseline
	dynInstrPct  float64 // 100 * steps after / steps before over the sample
	rows         []unitRow
	mismatches   []string
}

// rewritten lists the functions of u that a run turned into a thunk or
// a forwarder and that exist in the pristine module: merge members
// (pairs and flattened families) and folded duplicates. Merged
// functions that were merged again are not in the pristine module and
// drop out.
func rewritten(u *unit, pristine *ir.Module) []string {
	seen := map[string]bool{}
	var names []string
	add := func(name string) {
		if f := pristine.FuncByName(name); f != nil && !f.IsDecl() && !seen[name] {
			seen[name] = true
			names = append(names, name)
		}
	}
	for _, r := range u.reports {
		for _, mr := range r.Merges {
			add(mr.F1)
			add(mr.F2)
			for _, n := range mr.Family {
				add(n)
			}
		}
		for _, fr := range r.Folds {
			add(fr.Dup)
		}
	}
	sort.Strings(names)
	return names
}

// verify is the correctness oracle, run outside every timed section:
// each output module must verify, and a seeded sample of rewritten
// functions must behave like their bodies in a freshly generated
// pristine module. The same executions give dyn_instr_pct; the cost
// model over the pristine and the output modules gives final_size_pct.
func verify(inst *instance, seed int64) (*verdict, error) {
	pristine, err := inst.pristine()
	if err != nil {
		return nil, fmt.Errorf("regenerating pristine inputs: %w", err)
	}
	v := &verdict{}
	type pick struct {
		unit int
		name string
	}
	var all []pick
	logSum := 0.0
	for i, u := range inst.units {
		v.ops++
		if err := repro.VerifyModule(u.m); err != nil {
			v.failed++
			v.mismatches = append(v.mismatches, fmt.Sprintf("%s: %v", u.name, err))
		}
		row := unitRow{
			Name:          u.name,
			BaselineBytes: repro.EstimateSize(pristine[i], u.target),
			FinalBytes:    repro.EstimateSize(u.m, u.target),
		}
		for _, r := range u.reports {
			row.Merges += len(r.Merges)
			row.Folds += len(r.Folds)
			row.OptimizeS += r.TotalTime.Seconds()
		}
		v.rows = append(v.rows, row)
		logSum += math.Log(float64(row.FinalBytes) / float64(row.BaselineBytes))
		for _, name := range rewritten(u, pristine[i]) {
			all = append(all, pick{i, name})
		}
	}
	v.finalSizePct = 100 * math.Exp(logSum/float64(len(inst.units)))

	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	all = all[:min(len(all), oracleSample)]
	before, after := interp.NewEnv(), interp.NewEnv()
	before.MaxSteps, after.MaxSteps = oracleSteps, oracleStepsAfter
	var stepsBefore, stepsAfter int
	for _, t := range all {
		of := pristine[t.unit].FuncByName(t.name)
		nf := inst.units[t.unit].m.FuncByName(t.name)
		if nf == nil {
			v.ops++
			v.failed++
			v.mismatches = append(v.mismatches, fmt.Sprintf("%s/@%s: missing after the run", inst.units[t.unit].name, t.name))
			continue
		}
		for s := int64(1); s <= oracleArgSeeds; s++ {
			a := interp.Run(before, of, interp.ArgsFor(of, s))
			if strings.Contains(a.Err, "step limit") {
				continue
			}
			b := interp.Run(after, nf, interp.ArgsFor(nf, s))
			v.ops++
			if same, why := interp.SameBehavior(a, b); !same {
				v.failed++
				v.mismatches = append(v.mismatches, fmt.Sprintf("%s/@%s args %d: %s", inst.units[t.unit].name, t.name, s, why))
			}
			stepsBefore += a.Steps
			stepsAfter += b.Steps
		}
	}
	// A run that rewrote nothing executes exactly what it did before.
	v.dynInstrPct = 100
	if stepsBefore > 0 {
		v.dynInstrPct = 100 * float64(stepsAfter) / float64(stepsBefore)
	}
	return v, nil
}
