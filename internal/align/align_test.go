package align

import (
	"math/rand"
	"testing"

	"repro/internal/ir"
	"repro/internal/irtext"
)

func fig2Funcs(t *testing.T) (*ir.Function, *ir.Function) {
	t.Helper()
	m, err := irtext.Parse(irtext.Fig2Module)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return m.FuncByName("F1"), m.FuncByName("F2")
}

func TestLinearizeExcludesPhis(t *testing.T) {
	f1, f2 := fig2Funcs(t)
	s1 := Linearize(f1)
	s2 := Linearize(f2)
	// F1: 4 labels + 9 non-phi instructions; F2: 4 labels + 8 non-phi.
	if got, want := len(s1), 13; got != want {
		t.Errorf("len(linearize F1) = %d, want %d", got, want)
	}
	if got, want := len(s2), 12; got != want {
		t.Errorf("len(linearize F2) = %d, want %d", got, want)
	}
	for _, e := range append(s1, s2...) {
		if !e.IsLabel() && e.Instr.Op() == ir.OpPhi {
			t.Fatal("phi leaked into linearization")
		}
	}
}

func TestAlignFig2(t *testing.T) {
	f1, f2 := fig2Funcs(t)
	res, err := AlignFunctions(f1, f2, DefaultOptions())
	if err != nil {
		t.Fatalf("align: %v", err)
	}
	// The motivating example aligns: start-call, icmp/??? (different
	// preds, not mergeable), body-call, end-call, ret, plus labels.
	wantInstr := map[string]bool{}
	for _, p := range res.Pairs {
		if p.IsMatch() && !p.A.IsLabel() {
			wantInstr[p.A.Instr.Op().String()] = true
		}
	}
	for _, op := range []string{"call", "ret", "br"} {
		if !wantInstr[op] {
			t.Errorf("expected a matched %s pair", op)
		}
	}
	// icmp slt vs icmp ne must NOT merge (different predicates).
	for _, p := range res.Pairs {
		if p.IsMatch() && !p.A.IsLabel() && p.A.Instr.Op() == ir.OpICmp {
			if p.A.Instr.Pred() != p.B.Instr.Pred() {
				t.Error("aligned icmps with different predicates")
			}
		}
	}
	if res.InstrMatches < 4 {
		t.Errorf("only %d instruction matches; expect at least start/body/end/ret", res.InstrMatches)
	}
	if res.MatrixBytes != int64(13+1)*int64(12+1)*5 {
		t.Errorf("MatrixBytes = %d", res.MatrixBytes)
	}
}

func TestAlignmentIsValid(t *testing.T) {
	f1, f2 := fig2Funcs(t)
	s1, s2 := Linearize(f1), Linearize(f2)
	res, err := Align(s1, s2, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Every entry appears exactly once, in order.
	i, j := 0, 0
	for _, p := range res.Pairs {
		if p.A != nil {
			if p.A != &s1[i] {
				t.Fatalf("A side out of order at %d", i)
			}
			i++
		}
		if p.B != nil {
			if p.B != &s2[j] {
				t.Fatalf("B side out of order at %d", j)
			}
			j++
		}
		if p.IsMatch() && !Mergeable(*p.A, *p.B) {
			t.Fatalf("aligned non-mergeable pair %v vs %v", p.A, p.B)
		}
	}
	if i != len(s1) || j != len(s2) {
		t.Fatalf("alignment consumed %d/%d and %d/%d entries", i, len(s1), j, len(s2))
	}
}

func TestIdenticalFunctionsFullyMatch(t *testing.T) {
	m := irtext.MustParse(irtext.Fig2Module)
	f1 := m.FuncByName("F1")
	clone, _ := ir.CloneFunction(f1, "F1clone")
	res, err := AlignFunctions(f1, clone, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Pairs {
		if !p.IsMatch() {
			t.Fatalf("gap aligning a function against its clone: %v %v", p.A, p.B)
		}
	}
	if res.Matches != len(Linearize(f1)) {
		t.Errorf("matches = %d, want %d", res.Matches, len(Linearize(f1)))
	}
}

func TestMaxCells(t *testing.T) {
	f1, f2 := fig2Funcs(t)
	opts := DefaultOptions()
	opts.MaxCells = 10
	if _, err := AlignFunctions(f1, f2, opts); err != ErrTooLarge {
		t.Errorf("got %v, want ErrTooLarge", err)
	}
}

// bruteForceBestMatches computes the maximum weighted matching via
// exhaustive recursion (weights: instruction 2, label 1), for
// cross-checking the DP on small inputs.
func bruteForceBestMatches(a, b []Entry) int32 {
	var rec func(i, j int) int32
	rec = func(i, j int) int32 {
		if i == len(a) || j == len(b) {
			return 0
		}
		best := rec(i+1, j)
		if s := rec(i, j+1); s > best {
			best = s
		}
		if Mergeable(a[i], b[j]) {
			w := int32(2)
			if a[i].IsLabel() {
				w = 1
			}
			if s := rec(i+1, j+1) + w; s > best {
				best = s
			}
		}
		return best
	}
	return rec(0, 0)
}

// randomEntrySeq builds a random sequence of synthetic label/instruction
// entries with a small opcode alphabet so matches are plentiful.
func randomEntrySeq(rng *rand.Rand, n int) []Entry {
	ops := []ir.Opcode{ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpAnd}
	out := make([]Entry, 0, n)
	a := ir.NewConstInt(ir.I32, 1)
	for i := 0; i < n; i++ {
		if rng.Intn(4) == 0 {
			out = append(out, Entry{Label: ir.NewBlock("l")})
			continue
		}
		op := ops[rng.Intn(len(ops))]
		out = append(out, Entry{Instr: ir.NewBinary(op, "", a, a)})
	}
	return out
}

func TestAlignOptimalAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		a := randomEntrySeq(rng, rng.Intn(8))
		b := randomEntrySeq(rng, rng.Intn(8))
		res, err := Align(a, b, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		want := bruteForceBestMatches(a, b)
		if res.Score != want {
			t.Fatalf("trial %d: DP score %d, brute force %d", trial, res.Score, want)
		}
	}
}

func TestAlignmentScoreSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		a := randomEntrySeq(rng, rng.Intn(10))
		b := randomEntrySeq(rng, rng.Intn(10))
		r1, err1 := Align(a, b, DefaultOptions())
		r2, err2 := Align(b, a, DefaultOptions())
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if r1.Score != r2.Score {
			t.Fatalf("alignment score asymmetric: %d vs %d", r1.Score, r2.Score)
		}
	}
}

func TestMergeableRules(t *testing.T) {
	c1 := ir.NewConstInt(ir.I32, 1)
	add1 := ir.NewBinary(ir.OpAdd, "", c1, c1)
	add2 := ir.NewBinary(ir.OpAdd, "", c1, c1)
	sub := ir.NewBinary(ir.OpSub, "", c1, c1)
	cmpSlt := ir.NewICmp("", ir.PredSLT, c1, c1)
	cmpNe := ir.NewICmp("", ir.PredNE, c1, c1)
	cmpSlt2 := ir.NewICmp("", ir.PredSLT, c1, c1)
	wide := ir.NewBinary(ir.OpAdd, "", ir.NewConstInt(ir.I64, 1), ir.NewConstInt(ir.I64, 1))

	tests := []struct {
		name string
		a, b *ir.Instruction
		want bool
	}{
		{"same op", add1, add2, true},
		{"diff op", add1, sub, false},
		{"diff pred", cmpSlt, cmpNe, false},
		{"same pred", cmpSlt, cmpSlt2, true},
		{"diff width", add1, wide, false},
	}
	for _, tc := range tests {
		got := Mergeable(Entry{Instr: tc.a}, Entry{Instr: tc.b})
		if got != tc.want {
			t.Errorf("%s: Mergeable = %v, want %v", tc.name, got, tc.want)
		}
	}
	// Labels only match labels.
	lab := Entry{Label: ir.NewBlock("x")}
	if Mergeable(lab, Entry{Instr: add1}) {
		t.Error("label matched instruction")
	}
	if !Mergeable(lab, Entry{Label: ir.NewBlock("y")}) {
		t.Error("labels must match")
	}
}
