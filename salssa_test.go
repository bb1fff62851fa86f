package repro

import (
	"context"
	"strings"
	"testing"

	"repro/internal/irtext"
	"repro/internal/synth"
)

func TestFacadeParseMergeVerify(t *testing.T) {
	m, err := ParseModule(irtext.Fig2Module)
	if err != nil {
		t.Fatal(err)
	}
	o, err := New()
	if err != nil {
		t.Fatal(err)
	}
	merged, stats, err := o.MergePair(context.Background(), m, "F1", "F2")
	if err != nil {
		t.Fatal(err)
	}
	if merged == nil || stats == nil {
		t.Fatal("nil result")
	}
	if err := VerifyModule(m); err != nil {
		t.Fatalf("verify: %v", err)
	}
	text := FormatModule(m)
	if !strings.Contains(text, "@merged.F1.F2") {
		t.Error("printed module lacks the merged function")
	}
	// Thunks must remain under the original names.
	if m.FuncByName("F1").IsDecl() || m.FuncByName("F2").IsDecl() {
		t.Error("original names must stay defined (as thunks)")
	}
}

func TestFacadeOptimizeModule(t *testing.T) {
	m := synth.Generate(synth.Profile{
		Name: "facade", Seed: 12, Funcs: 24,
		MinSize: 8, AvgSize: 50, MaxSize: 160,
		CloneFrac: 0.6, FamilySize: 2, MutRate: 0.03, Loops: 0.5,
	})
	before := EstimateSize(m, X86_64)
	o, err := New(WithAlgorithm(SalSSA), WithThreshold(1), WithTarget(X86_64))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := o.Optimize(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyModule(m); err != nil {
		t.Fatalf("verify: %v", err)
	}
	if rep.BaselineBytes != before {
		t.Errorf("baseline bytes %d, want %d", rep.BaselineBytes, before)
	}
	if rep.FinalBytes != EstimateSize(m, X86_64) {
		t.Errorf("final bytes stale: %d vs %d", rep.FinalBytes, EstimateSize(m, X86_64))
	}
	if rep.Reduction() <= 0 {
		t.Errorf("no reduction on a clone-heavy module (%.2f%%)", rep.Reduction())
	}
}

func TestFacadeErrors(t *testing.T) {
	m, err := ParseModule("define void @only() {\ne:\n ret void\n}")
	if err != nil {
		t.Fatal(err)
	}
	o, err := New()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := o.MergePair(context.Background(), m, "only", "missing"); err == nil {
		t.Error("expected error for missing function")
	}
}
