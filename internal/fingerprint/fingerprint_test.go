package fingerprint

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/ir"
	"repro/internal/irtext"
	"repro/internal/synth"
)

func fig2(t *testing.T) *ir.Module {
	t.Helper()
	m, err := irtext.Parse(irtext.Fig2Module)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestFingerprintCounts(t *testing.T) {
	m := fig2(t)
	fp := New(m.FuncByName("F1"))
	if fp.Size != 10 {
		t.Errorf("F1 size = %d, want 10", fp.Size)
	}
	if fp.Blocks != 4 {
		t.Errorf("F1 blocks = %d, want 4", fp.Blocks)
	}
	if fp.OpCount[ir.OpCall] != 4 {
		t.Errorf("F1 calls = %d, want 4 (start, body, other, end)", fp.OpCount[ir.OpCall])
	}
	if fp.OpCount[ir.OpPhi] != 1 {
		t.Errorf("F1 phis = %d, want 1", fp.OpCount[ir.OpPhi])
	}
}

// randomFP builds an arbitrary fingerprint from quick-provided data.
func randomFP(rng *rand.Rand) *Fingerprint {
	fp := &Fingerprint{Blocks: int32(rng.Intn(10))}
	for i := 0; i < 8; i++ {
		fp.OpCount[rng.Intn(len(fp.OpCount))] = int32(rng.Intn(20))
	}
	return fp
}

// TestDistanceMetricAxioms: identity, symmetry, triangle inequality.
func TestDistanceMetricAxioms(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cfg := &quick.Config{MaxCount: 200, Rand: rng}
	identity := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomFP(r)
		return Distance(a, a) == 0
	}
	symmetry := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomFP(r), randomFP(r)
		return Distance(a, b) == Distance(b, a)
	}
	triangle := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b, c := randomFP(r), randomFP(r), randomFP(r)
		return Distance(a, c) <= Distance(a, b)+Distance(b, c)
	}
	for name, f := range map[string]func(int64) bool{
		"identity": identity, "symmetry": symmetry, "triangle": triangle,
	} {
		if err := quick.Check(f, cfg); err != nil {
			t.Errorf("%s violated: %v", name, err)
		}
	}
}

// TestUpperBound: matches can never exceed the per-opcode minimum.
func TestUpperBound(t *testing.T) {
	m := fig2(t)
	a := New(m.FuncByName("F1"))
	b := New(m.FuncByName("F2"))
	ub := UpperBoundMatches(a, b)
	// F1 and F2 share at most min(calls)=3 + min(brs)=3(F1 has 3, F2 3)
	// + min(icmp)=1 + min(ret)=1 + min(phi)=1 + min(blocks)=4.
	if ub < 8 || ub > 13 {
		t.Errorf("upper bound %d out of plausible range", ub)
	}
}

func TestRankingOrderLargestFirst(t *testing.T) {
	m := fig2(t)
	r := NewRanking(m.Defined())
	order := r.Order()
	if len(order) != 2 {
		t.Fatalf("order has %d functions", len(order))
	}
	if order[0].Name() != "F1" { // F1 (10 instrs) before F2 (9)
		t.Errorf("largest-first order broken: %s first", order[0].Name())
	}
}

func TestCandidatesExcludeSelfAndRemoved(t *testing.T) {
	m := fig2(t)
	f1, f2 := m.FuncByName("F1"), m.FuncByName("F2")
	r := NewRanking(m.Defined())
	c := r.Candidates(f1, 5)
	if len(c) != 1 || c[0] != f2 {
		t.Fatalf("candidates = %v", c)
	}
	r.Remove(f2)
	if c := r.Candidates(f1, 5); len(c) != 0 {
		t.Errorf("removed function still a candidate: %v", c)
	}
	r.Add(f2)
	if c := r.Candidates(f1, 5); len(c) != 1 {
		t.Errorf("re-added function missing: %v", c)
	}
}

func TestThresholdLimitsCandidates(t *testing.T) {
	src := ""
	for _, n := range []string{"a", "b", "c", "d", "e"} {
		src += "define i32 @" + n + "(i32 %x) {\ne:\n %y = add i32 %x, 1\n ret i32 %y\n}\n"
	}
	m := irtext.MustParse(src)
	r := NewRanking(m.Defined())
	f := m.FuncByName("a")
	for _, tval := range []int{1, 2, 4} {
		if got := len(r.Candidates(f, tval)); got != tval {
			t.Errorf("t=%d returned %d candidates", tval, got)
		}
	}
	if got := len(r.Candidates(f, 100)); got != 4 {
		t.Errorf("t=100 returned %d candidates, want 4", got)
	}
}

// TestAddDedupes: re-adding a present function must not duplicate it in
// the candidate pool (Add keeps an index map, so the membership check is
// O(1) rather than a scan of every candidate).
func TestAddDedupes(t *testing.T) {
	m := fig2(t)
	f1, f2 := m.FuncByName("F1"), m.FuncByName("F2")
	r := NewRanking(m.Defined())
	for i := 0; i < 3; i++ {
		r.Add(f2) // already present
	}
	if c := r.Candidates(f1, 10); len(c) != 1 {
		t.Fatalf("re-Add duplicated the candidate: %v", c)
	}
	if o := r.Order(); len(o) != 2 {
		t.Fatalf("re-Add duplicated the order: %d entries", len(o))
	}
}

// TestNewRankingDedupes: duplicate entries in the input list are
// dropped.
func TestNewRankingDedupes(t *testing.T) {
	m := fig2(t)
	f1, f2 := m.FuncByName("F1"), m.FuncByName("F2")
	r := NewRanking([]*ir.Function{f1, f2, f1, f2})
	if c := r.Candidates(f1, 10); len(c) != 1 {
		t.Fatalf("duplicate input inflated candidates: %v", c)
	}
	if o := r.Order(); len(o) != 2 {
		t.Fatalf("duplicate input inflated order: %d entries", len(o))
	}
}

// candidatesSpec is the specification of Ranking.Candidates: score every
// other live function, stable-sort all of them by (distance, name), keep
// the first t.
func candidatesSpec(r *Ranking, f *ir.Function, t int) []*ir.Function {
	self := r.fps[f]
	if self == nil || t <= 0 {
		return nil
	}
	type scored struct {
		fn *ir.Function
		d  int32
	}
	var list []scored
	for _, g := range r.funcs {
		if fp := r.fps[g]; fp != nil && g != f {
			list = append(list, scored{fn: g, d: Distance(self, fp)})
		}
	}
	sort.SliceStable(list, func(i, j int) bool {
		if list[i].d != list[j].d {
			return list[i].d < list[j].d
		}
		return list[i].fn.Name() < list[j].fn.Name()
	})
	if len(list) > t {
		list = list[:t]
	}
	out := make([]*ir.Function, len(list))
	for i, s := range list {
		out[i] = s.fn
	}
	return out
}

// TestCandidatesMatchFullSort: the bounded top-t selection returns the
// list the full sort does, element for element, on a clone-rich suite
// (identical and near-identical fingerprints, so distance ties are
// everywhere), before and after removals, for t from 1 past the corpus.
func TestCandidatesMatchFullSort(t *testing.T) {
	m := synth.Generate(synth.Profile{
		Name: "topt", Seed: 9, Funcs: 160,
		MinSize: 4, AvgSize: 14, MaxSize: 60,
		CloneFrac: 0.6, FamilySize: 5, MutRate: 0.02,
		Loops: 0.4, Switches: 0.3,
	})
	funcs := m.Defined()
	r := NewRanking(funcs)
	ties := 0
	check := func() {
		for _, f := range funcs {
			for _, tv := range []int{1, 3, 8, len(funcs) + 5} {
				got, want := r.Candidates(f, tv), candidatesSpec(r, f, tv)
				if len(got) != len(want) {
					t.Fatalf("%s t=%d: %d candidates, want %d", f.Name(), tv, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s t=%d: candidate %d is %s, want %s", f.Name(), tv, i, got[i].Name(), want[i].Name())
					}
				}
				if tv == 3 && len(want) == 3 && Distance(r.fps[f], r.fps[want[1]]) == Distance(r.fps[f], r.fps[want[2]]) {
					ties++
				}
			}
		}
	}
	check()
	for i, f := range funcs {
		if i%3 == 0 {
			r.Remove(f)
		}
	}
	check()
	if ties < 20 {
		t.Errorf("only %d queries had a distance tie inside their top 3: the suite does not exercise the name tie-break", ties)
	}
}
