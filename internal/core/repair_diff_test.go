package core_test

// repairSSA against the paper's slot repair (repair_spec_test.go) on
// merged bodies: the bodies are built twice, once repaired each way, and
// after Simplify the direct construction must verify, behave like the
// specification for every member on several argument seeds, and be no
// larger. It may be smaller: minimal phi placement leaves dead phi
// cycles that use-count DCE cannot remove, pruned placement never makes
// them.

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/synth"
	"repro/internal/transform"
)

// repairProfile shapes the modules whose functions are merged: small
// bodies with loops, switches, floats and invokes with landingpads.
func repairProfile(seed int64, funcs int) synth.Profile {
	return synth.Profile{
		Name: "repair", Seed: seed, Funcs: funcs,
		MinSize: 6, AvgSize: 28, MaxSize: 80,
		CloneFrac: 0.5, FamilySize: 3, MutRate: 0.12,
		Loops: 0.6, Switches: 0.5, ExcRate: 0.15, Floats: 0.2,
	}
}

// repairTally accumulates what the comparison saw.
type repairTally struct {
	bodies, smaller, execs, inconclusive int
	invokes, pads, switches              int
}

// argSeeds are the interp.ArgsFor seeds every member runs on.
var argSeeds = []int64{1, 2, 3}

// repairEnv is the interpreter environment for m's functions: a step
// budget that keeps long loops from dominating the test, and externals
// that throw on a third of their calls, so that invokes unwind into
// landing blocks.
func repairEnv(m *ir.Module) *interp.Env {
	env := interp.NewEnv()
	env.MaxSteps = 1 << 15
	for _, f := range m.Funcs {
		if f.IsDecl() {
			env.Throws[f.Name()] = func(args []interp.Value) bool {
				return len(args) > 0 && args[0].Kind == interp.KInt && args[0].Int%3 == 0
			}
		}
	}
	return env
}

// checkRepair builds fns' merged body under opts both ways and compares
// the two; it returns false, having reported why, on a divergence. fns
// that cannot be merged are skipped.
func checkRepair(t testing.TB, proto *interp.Env, fns []*ir.Function, opts core.Options, tally *repairTally) bool {
	t.Helper()
	if _, err := core.PlanParams(fns...); err != nil {
		return true
	}
	got, spec, err := core.MergeBothRepairs(fns, opts)
	if err != nil {
		t.Fatalf("merging %s: %v", names(fns), err)
	}
	transform.Simplify(got)
	transform.Simplify(spec)
	tally.bodies++
	if err := ir.VerifyFunction(got); err != nil {
		t.Errorf("%s: repaired body does not verify: %v\n%s", names(fns), err, got)
		return false
	}
	gotBytes, specBytes := costmodel.FuncBytes(got, costmodel.X86_64), costmodel.FuncBytes(spec, costmodel.X86_64)
	if gotBytes > specBytes {
		t.Errorf("%s: repaired body is %d bytes, the slot specification's %d\n--- specification\n%s--- repaired\n%s", names(fns), gotBytes, specBytes, spec, got)
		return false
	}
	if gotBytes < specBytes {
		tally.smaller++
	}
	got.Instrs(func(in *ir.Instruction) bool {
		switch in.Op() {
		case ir.OpInvoke:
			tally.invokes++
		case ir.OpLandingPad:
			tally.pads++
		case ir.OpSwitch:
			tally.switches++
		}
		return true
	})
	for j := range fns {
		for _, seed := range argSeeds {
			a := interp.Run(proto, spec, fidArgs(spec, j, len(fns), seed))
			b := interp.Run(proto, got, fidArgs(got, j, len(fns), seed))
			tally.execs += 2
			if strings.Contains(a.Err, "step limit") || strings.Contains(b.Err, "step limit") {
				// Out of budget: the bodies differ in dead phis, which cost
				// steps, so one may stop before the other.
				tally.inconclusive += 2
				continue
			}
			if same, why := interp.SameBehavior(a, b); !same {
				t.Errorf("%s: member %d, seed %d: repaired body differs from the slot specification: %s\n--- specification\n%s--- repaired\n%s", names(fns), j, seed, why, spec, got)
				return false
			}
		}
	}
	return true
}

// fidArgs returns interp.ArgsFor(f, seed) with the function identifier
// set to select member j of a k-member merge: the i1 true for member 0
// of a pair, the member index beyond.
func fidArgs(f *ir.Function, j, k int, seed int64) []interp.Value {
	args := interp.ArgsFor(f, seed)
	if k == 2 {
		args[0] = interp.BoolV(j == 0)
	} else {
		args[0] = interp.IntV(int64(j))
	}
	return args
}

func names(fns []*ir.Function) string {
	s := make([]string, len(fns))
	for i, f := range fns {
		s[i] = "@" + f.Name()
	}
	return strings.Join(s, "+")
}

// families returns, for each defined function of m in order, the family
// of it and the next k-1 later functions one parameter plan covers.
func families(m *ir.Module, k int) [][]*ir.Function {
	var out [][]*ir.Function
	defined := m.Defined()
	for i, f := range defined {
		fam := []*ir.Function{f}
		for _, g := range defined[i+1:] {
			if _, err := core.PlanParams(f, g); err == nil {
				if fam = append(fam, g); len(fam) == k {
					out = append(out, fam)
					break
				}
			}
		}
	}
	return out
}

// TestRepairMatchesSlotSpec holds repair to the slot specification over
// every pair and the k = 3/4 families of sixteen small modules: a seeded
// sample of one body in sixteen of each module, and under SCALE_CORPUS
// every body, against a 10,000-body floor.
func TestRepairMatchesSlotSpec(t *testing.T) {
	// Many small modules rather than a few large ones: the interpreter
	// runs every callee too, and a larger module's call chains are
	// deeper.
	modules, stride, want := 16, 16, 500
	if os.Getenv("SCALE_CORPUS") != "" {
		stride, want = 1, 10000
	}
	nopc := core.DefaultOptions()
	nopc.PhiCoalescing = false
	tallies := make([]repairTally, modules)
	t.Run("modules", func(t *testing.T) {
		for i := range tallies {
			tally := &tallies[i]
			t.Run(fmt.Sprint("seed", i+1), func(t *testing.T) {
				t.Parallel()
				m := synth.Generate(repairProfile(int64(i+1), 24))
				proto, defined := repairEnv(m), m.Defined()
				// sampled reports whether the next body is one the sweep
				// checks, one in stride, seeded by the module.
				rng := rand.New(rand.NewSource(int64(i + 1)))
				sampled := func() bool { return rng.Intn(stride) == 0 }
				for _, opts := range []core.Options{core.DefaultOptions(), nopc} {
					for i, f := range defined {
						for _, g := range defined[i+1:] {
							if sampled() && !checkRepair(t, proto, []*ir.Function{f, g}, opts, tally) {
								return
							}
						}
					}
					for _, k := range []int{3, 4} {
						for _, fam := range families(m, k) {
							if sampled() && !checkRepair(t, proto, fam, opts, tally) {
								return
							}
						}
					}
				}
			})
		}
	})
	var tally repairTally
	for _, x := range tallies {
		tally.bodies += x.bodies
		tally.smaller += x.smaller
		tally.execs += x.execs
		tally.inconclusive += x.inconclusive
		tally.invokes += x.invokes
		tally.pads += x.pads
		tally.switches += x.switches
	}
	t.Logf("%d bodies (%d invokes, %d landingpads, %d switches after clean-up): %d smaller than the slot specification's, none larger; %d executions agree, %d more inconclusive at the step limit",
		tally.bodies, tally.invokes, tally.pads, tally.switches, tally.smaller, tally.execs-tally.inconclusive, tally.inconclusive)
	if tally.bodies < want || tally.invokes == 0 || tally.pads == 0 || tally.switches == 0 {
		t.Errorf("the bodies do not cover the repair: %+v, want %d bodies with invokes, landingpads and switches", tally, want)
	}
}

// FuzzRepair draws a small synth module and two or more of its
// functions; the merged body must pass the same comparison.
func FuzzRepair(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed, uint8(0), uint8(1), uint8(2), true)
		f.Add(seed, uint8(3), uint8(5), uint8(3), false)
	}
	f.Fuzz(func(t *testing.T, seed int64, a, b, k uint8, coalesce bool) {
		m := synth.Generate(repairProfile(seed, 12))
		defined := m.Defined()
		n := len(defined)
		fns := []*ir.Function{defined[int(a)%n]}
		for i := 0; len(fns) < 2+int(k)%3 && i < n; i++ {
			g := defined[(int(b)+i)%n]
			if _, err := core.PlanParams(fns[0], g); err == nil && !containsFunc(fns, g) {
				fns = append(fns, g)
			}
		}
		if len(fns) < 2 {
			return
		}
		opts := core.DefaultOptions()
		opts.PhiCoalescing = coalesce
		var tally repairTally
		checkRepair(t, repairEnv(m), fns, opts, &tally)
	})
}

func containsFunc(fns []*ir.Function, f *ir.Function) bool {
	for _, g := range fns {
		if g == f {
			return true
		}
	}
	return false
}
