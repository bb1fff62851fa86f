package serve

import (
	"context"
	"testing"

	repro "repro"
)

// TestLoadSmoke: 50 concurrent clients hammer a 2-session daemon with
// plan/apply rounds until every session reaches its merge fixpoint.
// Zero hard errors are tolerated (conflicts are the designed optimistic
// retry path, not errors), and every daemon session's final module must
// be bit-for-bit what a single local Session converges to over the same
// corpus — the equivalence half of the load story.
func TestLoadSmoke(t *testing.T) {
	ctx := context.Background()
	cfg := LoadConfig{
		Clients:  50,
		Sessions: 2,
		Funcs:    120,
		Seed:     42,
	}
	rep, err := RunLoad(ctx, cfg, true)
	if err != nil {
		t.Fatalf("RunLoad: %v", err)
	}
	if rep.Errors != 0 {
		t.Fatalf("load run had %d hard errors (%d ops, %d conflicts)", rep.Errors, rep.Ops, rep.Conflicts)
	}
	if rep.Ops == 0 {
		t.Fatal("load run performed no operations")
	}
	if rep.Merges+rep.Folds == 0 {
		t.Fatal("load run committed nothing on a clone-heavy corpus")
	}
	if len(rep.FinalModules) != cfg.Sessions {
		t.Fatalf("collected %d final modules, want %d", len(rep.FinalModules), cfg.Sessions)
	}

	// Local reference: one session, no HTTP, no concurrency, driven to
	// the same fixpoint over the same corpus and options.
	corpus := loadCorpus(cfg.Funcs, cfg.Seed)
	m, err := repro.ParseModule(corpus)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := repro.New(repro.WithDupFold(true))
	if err != nil {
		t.Fatal(err)
	}
	s, err := opt.Open(ctx, m)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for round := 0; ; round++ {
		if round > 100 {
			t.Fatal("local reference did not reach a fixpoint")
		}
		r, err := s.Optimize(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Merges)+len(r.Folds) == 0 {
			break
		}
	}
	want := repro.FormatModule(m)
	for name, got := range rep.FinalModules {
		if got != want {
			t.Fatalf("session %s: daemon module (%d bytes) != local fixpoint (%d bytes)",
				name, len(got), len(want))
		}
	}
}
