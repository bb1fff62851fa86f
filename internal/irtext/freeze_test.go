package irtext

import (
	"fmt"
	"testing"

	"repro/internal/corpus"
	"repro/internal/ir"
	"repro/internal/search"
	"repro/internal/synth"
)

// poisonReleases makes every body released while tb runs poisoned
// instead of pooled (ir.ReleaseCheck), so a thawed body that still
// pointed into its released original would read garbage.
func poisonReleases(tb testing.TB) {
	saved := ir.ReleaseCheck
	ir.ReleaseCheck = func(*ir.Function) {}
	tb.Cleanup(func() { ir.ReleaseCheck = saved })
}

// freezeRoundTrip moves f's body out of its module, freezes it, releases
// it and thaws the record, and reports how the thawed body differs from
// the original: its text, its structure (search.EqualFunctions against a
// copy taken before the release), its verdict from ir.VerifyFunction
// (the parser accepts bodies that do not verify), parameter names, and
// the identity of every operand that tracks no uses, in order. It
// returns the record.
func freezeRoundTrip(f *ir.Function) (*ir.Frozen, error) {
	body := f.DetachBody()
	want := body.String()
	ref, _ := ir.CloneFunction(body, body.Name())
	var params []string
	for _, p := range body.Params() {
		params = append(params, p.Name())
	}
	collect := func(g *ir.Function) []ir.Value {
		var out []ir.Value
		g.Instrs(func(in *ir.Instruction) bool {
			for _, op := range in.Operands() {
				switch op.(type) {
				case *ir.Instruction, *ir.Block, *ir.Argument:
				default:
					out = append(out, op)
				}
			}
			return true
		})
		return out
	}
	shared := collect(body)
	verdict := fmt.Sprint(ir.VerifyFunction(body))
	z := ir.Freeze(body)
	ir.Release(body)
	got := z.Thaw()
	switch {
	case got.Name() != f.Name() || got.Sig() != f.Sig():
		return z, fmt.Errorf("thawed @%s has another name or signature", got.Name())
	case got.String() != want:
		return z, fmt.Errorf("thawed @%s prints differently:\n%s\nwant\n%s", f.Name(), got, want)
	case !search.EqualFunctions(ref, got):
		return z, fmt.Errorf("thawed @%s is not structurally equal to the original", f.Name())
	}
	if v := fmt.Sprint(ir.VerifyFunction(got)); v != verdict {
		return z, fmt.Errorf("thawed @%s verifies as %q, the original as %q", f.Name(), v, verdict)
	}
	for i, p := range got.Params() {
		if p.Name() != params[i] {
			return z, fmt.Errorf("thawed @%s: parameter %d is %%%s, want %%%s", f.Name(), i, p.Name(), params[i])
		}
	}
	thawed := collect(got)
	if len(thawed) != len(shared) {
		return z, fmt.Errorf("thawed @%s has %d untracked operands, want %d", f.Name(), len(thawed), len(shared))
	}
	for i := range shared {
		if thawed[i] != shared[i] {
			return z, fmt.Errorf("thawed @%s: untracked operand %d is not the original's value", f.Name(), i)
		}
	}
	return z, nil
}

// TestFreezeRoundTrip: every function of the SPEC2006, SPEC2017 and
// MiBench profiles and of a 2,000-function corpus comes back from
// Freeze, Release of the original and Thaw as it was (freezeRoundTrip),
// and its record holds at most 40 bytes a stored instruction.
func TestFreezeRoundTrip(t *testing.T) {
	poisonReleases(t)
	var mods []*ir.Module
	for _, suite := range [][]synth.Profile{synth.SPEC2006(), synth.SPEC2017(), synth.MiBench()} {
		for _, prof := range suite {
			mods = append(mods, synth.Generate(prof))
		}
	}
	mods = append(mods, corpus.Build(corpus.Config{Funcs: 2000, Seed: 7}))
	funcs, instrs, bytes := 0, 0, 0
	for _, m := range mods {
		for _, f := range m.Defined() {
			instrs += f.NumInstrs()
			z, err := freezeRoundTrip(f)
			if err != nil {
				t.Fatal(err)
			}
			bytes += z.Bytes()
			funcs++
		}
	}
	perInstr := float64(bytes) / float64(instrs)
	t.Logf("%d functions, %d instructions round-tripped; records hold %d bytes, %.1f a instruction", funcs, instrs, bytes, perInstr)
	if perInstr > 40 {
		t.Errorf("records hold %.1f bytes a stored instruction, budget 40", perInstr)
	}
}

// TestFreezeManyTypes: a body with more distinct result types than a
// header word holds (every alloca's pointer type is its own) writes its
// type indexes after the header, and still round-trips.
func TestFreezeManyTypes(t *testing.T) {
	poisonReleases(t)
	m := ir.NewModule()
	f := m.AddFunc(ir.NewFunction("slots", ir.FuncOf(ir.I32, ir.I32)))
	b := f.NewBlockIn("entry")
	for range 1 << 15 {
		b.Append(ir.NewStore(f.Param(0), b.Append(ir.NewAlloca("", ir.I32))))
	}
	b.Append(ir.NewRet(f.Param(0)))
	if _, err := freezeRoundTrip(f); err != nil {
		t.Fatal(err)
	}
}

// TestFreezeRefusesForeignOperands: a body with an operand from outside
// it cannot be frozen — the record would keep a use-tracked value
// without its use.
func TestFreezeRefusesForeignOperands(t *testing.T) {
	m := MustParse("define i32 @a(i32 %x) {\nentry:\n  %y = add i32 %x, 1\n  ret i32 %y\n}\n")
	a := m.FuncByName("a")
	g := ir.NewFunction("g", a.Sig())
	g.NewBlockIn("entry").Append(ir.NewRet(a.Param(0)))
	defer func() {
		if recover() == nil {
			t.Error("Freeze accepted a body returning another function's parameter")
		}
	}()
	ir.Freeze(g)
}

// FuzzFreeze: every function of a module the parser accepts round-trips
// through Freeze, Release and Thaw (freezeRoundTrip).
func FuzzFreeze(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	poisonReleases(f)
	f.Fuzz(func(t *testing.T, src string) {
		m, err := Parse(src)
		if err != nil {
			return
		}
		for _, fn := range m.Defined() {
			if _, err := freezeRoundTrip(fn); err != nil {
				t.Fatal(err)
			}
		}
	})
}
