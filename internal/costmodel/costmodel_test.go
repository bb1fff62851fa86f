package costmodel

import (
	"testing"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/irtext"
)

func TestThumbSmallerThanX86(t *testing.T) {
	m := irtext.MustParse(irtext.Fig2Module)
	for _, f := range m.Defined() {
		x := FuncBytes(f, X86_64)
		th := FuncBytes(f, Thumb)
		if th >= x {
			t.Errorf("@%s: thumb %d >= x86 %d", f.Name(), th, x)
		}
		if th <= 0 || x <= 0 {
			t.Errorf("@%s: non-positive size", f.Name())
		}
	}
}

func TestModuleBytesIsSumOfFunctions(t *testing.T) {
	m := irtext.MustParse(irtext.Fig2Module)
	sum := 0
	for _, f := range m.Funcs {
		sum += FuncBytes(f, X86_64)
	}
	if got := ModuleBytes(m, X86_64); got != sum {
		t.Errorf("ModuleBytes = %d, sum = %d", got, sum)
	}
}

func TestDeclarationsAreFree(t *testing.T) {
	m := irtext.MustParse(irtext.Fig2Module)
	if got := FuncBytes(m.FuncByName("start"), X86_64); got != 0 {
		t.Errorf("declaration costs %d bytes", got)
	}
}

func TestInstrBytesOrdering(t *testing.T) {
	// Phis must be much cheaper than selects (the phi-node-coalescing
	// profit depends on it), calls cost more than ALU ops.
	c := ir.NewConstInt(ir.I32, 1)
	phi := ir.NewPhi("p", ir.I32)
	sel := ir.NewSelect("s", ir.True, c, c)
	add := ir.NewBinary(ir.OpAdd, "a", c, c)
	div := ir.NewBinary(ir.OpSDiv, "d", c, c)
	for _, target := range []Target{X86_64, Thumb} {
		if InstrBytes(phi, target) >= InstrBytes(sel, target) {
			t.Errorf("%v: phi (%d) not cheaper than select (%d)",
				target, InstrBytes(phi, target), InstrBytes(sel, target))
		}
		if InstrBytes(add, target) > InstrBytes(div, target) {
			t.Errorf("%v: add more expensive than div", target)
		}
	}
}

func TestThunkBytesGrowsWithArgs(t *testing.T) {
	if ThunkBytes(X86_64, 8) <= ThunkBytes(X86_64, 0) {
		t.Error("thunk size must grow with the argument count")
	}
	if ThunkBytes(Thumb, 4) >= ThunkBytes(X86_64, 4) {
		t.Error("thumb thunks should be smaller")
	}
}

func TestThunkBytesIsBuiltBody(t *testing.T) {
	// ThunkBytes prices the forwarding bodies ir.BuildForwarder builds —
	// a merge thunk (core.BuildThunk hands it the merged function's
	// argument list) and a fold forwarder (dup's own parameters) — so it
	// must be what FuncBytes measures of them: any gap is a saving the
	// merge gate records and the module never makes.
	for _, target := range []Target{X86_64, Thumb} {
		for _, ret := range []ir.Type{ir.Void, ir.I32} {
			for n := 0; n <= 8; n++ {
				params := make([]ir.Type, n)
				for i := range params {
					params[i] = ir.I32
				}
				sig := ir.FuncOf(ret, params...)
				m := ir.NewModule()
				f1, f2 := ir.NewFunction("f1", sig), ir.NewFunction("f2", sig)
				plan, err := core.PlanParams(f1, f2)
				if err != nil {
					t.Fatal(err)
				}
				merged, _ := core.NewMergedShell(m, "merged", []*ir.Function{f1, f2}, plan)
				core.BuildThunk(f1, merged, 0, plan.Maps[0], plan)
				if ir.Forwardee(f1) != merged {
					t.Fatalf("ret %v arity %d: the thunk is not a forwarding body into @merged", ret, n)
				}
				if got, want := ThunkBytes(target, len(merged.Params())), FuncBytes(f1, target); got != want {
					t.Errorf("%v ret %v arity %d: ThunkBytes = %d, the built thunk measures %d",
						target, ret, len(merged.Params()), got, want)
				}
				ir.BuildForwarder(f2, f1, f2.ParamValues())
				if ir.Forwardee(f2) != f1 {
					t.Fatalf("ret %v arity %d: the fold forwarder is not a forwarding body into @f1", ret, n)
				}
				if got, want := ThunkBytes(target, n), FuncBytes(f2, target); got != want {
					t.Errorf("%v ret %v arity %d: ThunkBytes = %d, the built forwarder measures %d",
						target, ret, n, got, want)
				}
			}
		}
	}
}

func TestSwitchBytesSharedWithInstrBytes(t *testing.T) {
	// The switch-pricing helper and InstrBytes(OpSwitch) must agree:
	// the family label selections are real switch instructions, so one
	// rule prices both.
	blk := ir.NewBlock("a")
	blk2 := ir.NewBlock("b")
	def := ir.NewBlock("d")
	sw := ir.NewSwitch(ir.NewConstInt(ir.I32, 0), def,
		ir.SwitchCase{Val: ir.NewConstInt(ir.I32, 1), Dest: blk},
		ir.SwitchCase{Val: ir.NewConstInt(ir.I32, 2), Dest: blk2},
	)
	for _, target := range []Target{X86_64, Thumb} {
		if got, want := InstrBytes(sw, target), SwitchBytes(target, 2); got != want {
			t.Errorf("%v: InstrBytes(switch) = %d, SwitchBytes = %d", target, got, want)
		}
		if SwitchBytes(target, 3) <= SwitchBytes(target, 1) {
			t.Errorf("%v: switch cost must grow with case count", target)
		}
	}
}
