package transform_test

import (
	"context"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/align"
	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/ir"
	"repro/internal/irtext"
	"repro/internal/search"
	"repro/internal/synth"
	"repro/internal/transform"
)

// A shape is one family of function bodies clean-up is asked about.
type shape struct {
	name string
	fns  []*ir.Function
}

var (
	shapesOnce sync.Once
	shapesMemo []shape
)

// cleanupShapes returns, built once per test binary: the 2k corpus; the
// tiny8k benchmark's accessor-sized shape; the SPEC2006 and MiBench
// profiles at a third of their function counts (as the benchmark runs
// them); CanonSuite's noise-mutated clones; random CFGs; and 400 merged
// bodies of corpus pairs, as the generator hands them to clean-up and
// after it. The merged bodies are built first, from the corpus
// functions, so that the corpus is checked after the generator has been
// through their use lists. -short quarters the merged bodies and
// halves the rest.
func cleanupShapes(t *testing.T) []shape {
	t.Helper()
	shapesOnce.Do(func() {
		scale := 1
		if testing.Short() {
			scale = 2
		}
		cm := corpus.Build(corpus.Config{Funcs: 2000 / scale, Seed: 7})
		raw, simplified := mergedBodies(t, cm, 400/scale/scale)
		tiny := corpus.Build(corpus.Config{Funcs: 2000 / scale, Seed: 20200615, CloneFrac: 1e-9, LibDupFrac: 1e-9, AvgSize: 8, MaxSize: 14})
		suite := func(profiles []synth.Profile) []*ir.Function {
			var out []*ir.Function
			for _, p := range profiles {
				p.Funcs = max(2, p.Funcs/3/scale)
				out = append(out, synth.Generate(p).Defined()...)
			}
			return out
		}
		rng := rand.New(rand.NewSource(41))
		var cfgs []*ir.Function
		for len(cfgs) < 600/scale {
			if f := randomCFG(rng, 1+rng.Intn(14)); ir.VerifyFunction(f) == nil {
				cfgs = append(cfgs, f)
			}
		}
		shapesMemo = []shape{
			{"corpus2k", cm.Defined()},
			{"tiny8k", tiny.Defined()},
			{"spec2006", suite(synth.SPEC2006())},
			{"mibench", suite(synth.MiBench())},
			{"canon", synth.CanonSuite(600/scale, 5).Defined()},
			{"random-cfg", cfgs},
			{"merged", raw},
			{"merged-simplified", simplified},
		}
	})
	if shapesMemo == nil {
		t.Fatal("building the shapes failed")
	}
	return shapesMemo
}

// mergedBodies merges the top-1 candidate pairs of m's functions, in a
// seeded order, until n bodies are built; it returns each body as
// generated (a clone) and after Simplify.
func mergedBodies(t *testing.T, m *ir.Module, n int) (raw, simplified []*ir.Function) {
	funcs := m.Defined()
	rand.New(rand.NewSource(1)).Shuffle(len(funcs), func(i, j int) { funcs[i], funcs[j] = funcs[j], funcs[i] })
	finder := search.New(search.KindLSH, m.Defined())
	for _, f := range funcs {
		if len(raw) == n {
			break
		}
		got := finder.Candidates(f, 1)
		if len(got) == 0 {
			continue
		}
		if _, err := core.PlanParams(f, got[0]); err != nil {
			continue
		}
		ares, err := align.AlignFunctions(f, got[0], align.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		merged, _, err := core.MergeAlignedCtx(context.Background(), ir.NewModule(), f, got[0], "merged", ares, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		c, _ := ir.CloneFunction(merged, merged.Name())
		raw = append(raw, c)
		transform.Simplify(merged)
		simplified = append(simplified, merged)
	}
	if len(raw) != n {
		t.Fatalf("corpus yields %d candidate pairs, want %d", len(raw), n)
	}
	return raw, simplified
}

// randomCFG is the random single-entry CFG of analysis's reference tests
// — returns, branches, conditional branches and switches to uniformly
// drawn targets, so unreachable blocks, self loops, irreducible loops
// and duplicate edges turn up — with more for clean-up to decide:
// conditions and switch operands are a parameter as often as a
// constant, and blocks with predecessors get phis over parameters,
// constants, undef and (where the block dominates the edge) its own
// phis, some of them used by the return.
func randomCFG(rng *rand.Rand, n int) *ir.Function {
	f := ir.NewFunction("r", ir.FuncOf(ir.I32, ir.I1, ir.I32, ir.I32))
	blocks := make([]*ir.Block, n)
	for i := range blocks {
		blocks[i] = f.NewBlockIn("")
	}
	pick := func() *ir.Block { return blocks[1+rng.Intn(n-1)] }
	for _, b := range blocks {
		kind := rng.Intn(4)
		if n == 1 {
			kind = 0
		}
		switch kind {
		case 0:
			b.Append(ir.NewRet(f.Param(1)))
		case 1:
			b.Append(ir.NewBr(pick()))
		case 2:
			var c ir.Value = f.Param(0)
			if rng.Intn(2) == 0 {
				c = ir.True
			}
			b.Append(ir.NewCondBr(c, pick(), pick()))
		default:
			var cases []ir.SwitchCase
			for c := rng.Intn(4); c >= 0; c-- {
				cases = append(cases, ir.SwitchCase{Val: ir.NewConstInt(ir.I32, int64(c)), Dest: pick()})
			}
			var v ir.Value = f.Param(2)
			if rng.Intn(2) == 0 {
				v = ir.NewConstInt(ir.I32, 0)
			}
			b.Append(ir.NewSwitch(v, pick(), cases...))
		}
	}
	dt := analysis.NewDomTree(f)
	for _, b := range blocks[1:] {
		preds := b.Preds()
		if len(preds) == 0 {
			continue
		}
		var phis []*ir.Instruction
		for k := rng.Intn(4); k > 0; k-- {
			phis = append(phis, ir.NewPhi("", ir.I32))
		}
		b.InsertAllAtFront(phis)
		for _, phi := range phis {
			for _, p := range preds {
				var v ir.Value
				switch r := rng.Intn(6); {
				case r == 0:
					v = ir.NewUndef(ir.I32)
				case r == 1:
					v = ir.NewConstInt(ir.I32, int64(rng.Intn(2)))
				case r == 2 && dt.Dominates(b, p):
					v = phis[rng.Intn(len(phis))]
				default:
					v = f.Param(1 + rng.Intn(2))
				}
				phi.AddIncoming(v, p)
			}
		}
		if t := b.Term(); len(phis) > 0 && t.Op() == ir.OpRet && rng.Intn(2) == 0 {
			t.SetOperand(0, phis[0])
		}
	}
	return f
}

// simplifyClone runs Simplify on a clone of f and returns what it
// reported and whether the clone's text came out as it went in.
func simplifyClone(f *ir.Function) (changes int, unchanged bool) {
	c, _ := ir.CloneFunction(f, f.Name())
	before := c.String()
	changes = transform.Simplify(c)
	return changes, c.String() == before
}

// TestSettledNeverWrong holds transform.Settled to Simplify: a function
// it calls settled must come through Simplify on a clone with no change
// reported and its text untouched. Of the functions the clone finds
// clean, Settled must recognise at least 97% per shape; the misses are
// logged by the trigger that made it hesitate.
func TestSettledNeverWrong(t *testing.T) {
	for _, sh := range cleanupShapes(t) {
		clean, settled, wrong := 0, 0, 0
		misses := map[string]int{}
		for _, f := range sh.fns {
			said := transform.Settled(f)
			changes, unchanged := simplifyClone(f)
			if said && (changes != 0 || !unchanged) {
				if wrong++; wrong <= 3 {
					t.Errorf("%s: Settled(@%s) but Simplify reports %d changes (text unchanged: %v)\n%s", sh.name, f.Name(), changes, unchanged, f)
				}
			}
			if changes == 0 {
				clean++
				if said {
					settled++
				} else {
					misses[transform.Pending(f)]++
				}
			}
		}
		var by []string
		for trigger, n := range misses {
			by = append(by, trigger+"="+strconv.Itoa(n))
		}
		sort.Strings(by)
		t.Logf("%-17s %5d functions, %5d clean, %5d settled; misses by trigger: [%s]", sh.name, len(sh.fns), clean, settled, strings.Join(by, " "))
		if clean > 0 && 100*settled < 97*clean {
			t.Errorf("%s: Settled recognises %d of %d clean functions, below the 97%% floor", sh.name, settled, clean)
		}
	}
}

// TestSimplifyZeroMeansUnchanged: whenever Simplify reports no change,
// the function is textually what it was — the premise Settled's
// soundness rests on.
func TestSimplifyZeroMeansUnchanged(t *testing.T) {
	zeros := 0
	for _, sh := range cleanupShapes(t) {
		for _, f := range sh.fns {
			changes, unchanged := simplifyClone(f)
			if changes == 0 {
				zeros++
				if !unchanged {
					t.Errorf("%s: Simplify(@%s) returned 0 but rewrote it\n%s", sh.name, f.Name(), f)
				}
			}
		}
	}
	if zeros == 0 {
		t.Fatal("no function came through Simplify unchanged")
	}
}

// FuzzSettled runs the TestSettledNeverWrong property over parsed
// modules: every function that verifies.
func FuzzSettled(f *testing.F) {
	f.Add(irtext.Fig2Module)
	f.Add(`define i32 @f(i1 %c, i32 %x) {
entry:
  br i1 %c, label %a, label %b
a:
  br label %j
b:
  br label %j
j:
  %p = phi i32 [ %x, %a ], [ undef, %b ]
  %q = phi i32 [ %x, %a ], [ %x, %b ]
  ret i32 %q
}
`)
	f.Fuzz(func(t *testing.T, src string) {
		m, err := irtext.Parse(src)
		if err != nil {
			return
		}
		for _, fn := range m.Defined() {
			if ir.VerifyFunction(fn) != nil {
				continue
			}
			if transform.Settled(fn) {
				if changes, unchanged := simplifyClone(fn); changes != 0 || !unchanged {
					t.Fatalf("Settled(@%s) but Simplify reports %d changes (text unchanged: %v)\n%s", fn.Name(), changes, unchanged, fn)
				}
			}
		}
	})
}
