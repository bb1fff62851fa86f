package synth

import (
	"testing"

	"repro/internal/ir"
)

func testProfile() Profile {
	return Profile{
		Name: "testbench", Seed: 42, Funcs: 24,
		MinSize: 5, AvgSize: 40, MaxSize: 160,
		CloneFrac: 0.5, FamilySize: 3, MutRate: 0.05,
		Loops: 0.6, Floats: 0.2, ExcRate: 0.05, Switches: 0.5,
	}
}

func TestGenerateVerifies(t *testing.T) {
	m := Generate(testProfile())
	if err := ir.VerifyModule(m); err != nil {
		t.Fatalf("generated module does not verify: %v", err)
	}
	st := ModuleStats(m)
	if st.Funcs != 24 {
		t.Errorf("generated %d functions, want 24", st.Funcs)
	}
	if st.PhiInstrs == 0 {
		t.Error("generated module has no phis; promotion failed to produce natural SSA")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(testProfile()).String()
	b := Generate(testProfile()).String()
	if a != b {
		t.Fatal("generation is not deterministic for equal seeds")
	}
	p := testProfile()
	p.Seed = 43
	c := Generate(p).String()
	if a == c {
		t.Fatal("different seeds produced identical modules")
	}
}

func TestSizeListHitsTargets(t *testing.T) {
	for _, p := range MiBench() {
		if p.Funcs < 2 {
			continue
		}
		n := min(p.Funcs, 40)
		if p.MaxSize > p.AvgSize*n/2 {
			// Scaling the function count down makes the published
			// min/avg/max combination infeasible (one huge function
			// dominates the mean); the full-size suites remain feasible.
			continue
		}
		m := Generate(Profile{
			Name: p.Name, Seed: p.Seed, Funcs: n,
			MinSize: p.MinSize, AvgSize: p.AvgSize, MaxSize: p.MaxSize,
			CloneFrac: 0, Loops: p.Loops, Floats: p.Floats,
		})
		st := ModuleStats(m)
		// Post-promotion sizes approximate the targets; the average
		// must land within a factor of two.
		if st.AvgSize < float64(p.AvgSize)/2 || st.AvgSize > float64(p.AvgSize)*2 {
			t.Errorf("%s: average size %.1f, target %d", p.Name, st.AvgSize, p.AvgSize)
		}
	}
}

func TestCloneFamiliesAreSimilar(t *testing.T) {
	p := testProfile()
	p.MutRate = 0.03
	m := Generate(p)
	// Members of the same family should have nearly equal sizes.
	var sizes []int
	for _, f := range m.Defined() {
		if len(f.Name()) > 14 && f.Name()[:14] == "testbench_t00_" {
			sizes = append(sizes, f.NumInstrs())
		}
	}
	if len(sizes) < 2 {
		t.Skip("no family found")
	}
	for _, s := range sizes[1:] {
		ratio := float64(s) / float64(sizes[0])
		if ratio < 0.7 || ratio > 1.4 {
			t.Errorf("family member sizes diverge: %v", sizes)
		}
	}
}

// TestSuitesGenerate generates every program of the three suites at full
// size: each must verify, and each has been through the clean-up passes
// under the failing SkipCheck (TestMain).
func TestSuitesGenerate(t *testing.T) {
	if testing.Short() {
		t.Skip("suite generation is slow in -short mode")
	}
	for _, suite := range [][]Profile{SPEC2006(), SPEC2017(), MiBench()} {
		for _, p := range suite {
			if err := ir.VerifyModule(Generate(p)); err != nil {
				t.Errorf("%s: %v", p.Name, err)
			}
		}
	}
}
