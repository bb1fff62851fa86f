package fingerprint

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/ir"
	"repro/internal/irtext"
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
