package driver

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/ir"
	"repro/internal/irtext"
	"repro/internal/synth"
)

// snapshotConfigs is the grid the snapshot tests sweep: family tracking
// off and on.
func snapshotConfigs() []Config {
	var out []Config
	for _, fam := range []int{0, 4} {
		out = append(out, Config{
			Algorithm: SalSSA, Threshold: 2, Target: costmodel.X86_64,
			MaxFamily: fam,
		})
	}
	return out
}

// snapshotModuleText returns the snapshot tests' module as text — the
// persisted form a daemon would reload alongside the snapshot.
func snapshotModuleText(t *testing.T) string {
	t.Helper()
	m := synth.Generate(synth.Profile{
		Name: "snap", Seed: 9, Funcs: 40,
		MinSize: 6, AvgSize: 40, MaxSize: 120,
		CloneFrac: 0.5, FamilySize: 3, MutRate: 0.08,
		Loops: 0.5, Switches: 0.4,
	})
	return m.String()
}

// planJSON canonicalizes a plan for bit-for-bit comparison: the run ID
// is the only field allowed to differ between two equivalent plans.
func planJSON(t *testing.T, p *Plan) string {
	t.Helper()
	cp := *p
	cp.RunID = 0
	data, err := json.Marshal(&cp)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// roundTripSnapshot serializes and reparses the snapshot, as the daemon
// does through its on-disk file.
func roundTripSnapshot(t *testing.T, snap *Snapshot) *Snapshot {
	t.Helper()
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	out := &Snapshot{}
	if err := json.Unmarshal(data, out); err != nil {
		t.Fatal(err)
	}
	return out
}

// memoPairs counts the pairs in s's outcome memo.
func memoPairs(s *Session) int {
	n := 0
	for _, r := range s.recs.of {
		n += len(r.memo)
	}
	return n
}

// optimizedSnapshot runs a session over text to its second Optimize and
// returns the session (its memo populated), its snapshot and the
// module text the snapshot describes.
func optimizedSnapshot(t *testing.T, text string, cfg Config) (*Session, *Snapshot, string) {
	t.Helper()
	ctx := context.Background()
	m, err := irtext.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	s, err := OpenSession(ctx, m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for range 2 {
		if _, err := s.Optimize(ctx); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Outcomes) == 0 {
		t.Fatal("snapshot after Optimize carries no memo pairs")
	}
	return s, snap, m.String()
}

// TestSnapshotRoundTrip is the save → restart → load differential: a
// session restored from a snapshot must produce the same Plan, bit for
// bit, as a cold OpenSession over the same module text — both on a
// fresh module and after an Optimize has rewritten it. A warm restart
// is proven by its memo: the first warm PlanReport serves pairs from
// the restored memo where the cold one serves none, and without family
// tracking (whose head pairs a snapshot leaves out) it equals what the
// original session, continued, would have reported.
func TestSnapshotRoundTrip(t *testing.T) {
	ctx := context.Background()
	text := snapshotModuleText(t)
	for _, cfg := range snapshotConfigs() {
		// Every session folds; the cells keep the fold=true in their
		// names from when folding was optional.
		t.Run(fmt.Sprintf("fold=true-fam=%d", cfg.MaxFamily), func(t *testing.T) {
			// Fresh-module snapshot: an empty memo restores into a
			// session that plans like a cold one.
			m1, err := irtext.Parse(text)
			if err != nil {
				t.Fatal(err)
			}
			s1, err := OpenSession(ctx, m1, cfg)
			if err != nil {
				t.Fatal(err)
			}
			snap, err := s1.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if len(snap.Funcs) != 0 || len(snap.Outcomes) != 0 {
				t.Fatalf("fresh snapshot carries %d functions and %d pairs, want none", len(snap.Funcs), len(snap.Outcomes))
			}
			m2, err := irtext.Parse(text)
			if err != nil {
				t.Fatal(err)
			}
			s2, err := OpenSessionWithSnapshot(ctx, m2, cfg, roundTripSnapshot(t, snap))
			if err != nil {
				t.Fatalf("warm open: %v", err)
			}
			warmPlan, err := s2.Plan(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := planJSON(t, warmPlan), planJSON(t, freshPlan(t, ctx, text, cfg)); got != want {
				t.Fatalf("warm plan differs from cold plan:\nwarm: %s\ncold: %s", got, want)
			}

			// Post-optimize snapshot: the memo is populated; persist the
			// mutated module as text and restart from both artifacts.
			orig, snap2, optText := optimizedSnapshot(t, text, cfg)
			coldPlan, cold := freshPlanReport(t, ctx, optText, cfg)
			if cold.OutcomeHits != 0 {
				t.Fatalf("cold open served %d pairs from a memo, want 0", cold.OutcomeHits)
			}
			m3, err := irtext.Parse(optText)
			if err != nil {
				t.Fatal(err)
			}
			s3, err := OpenSessionWithSnapshot(ctx, m3, cfg, roundTripSnapshot(t, snap2))
			if err != nil {
				t.Fatalf("warm open after optimize: %v", err)
			}
			if got, want := memoPairs(s3), len(snap2.Outcomes); got != want {
				t.Fatalf("warm open restored %d memo pairs, snapshot carries %d", got, want)
			}
			warmPlan2, warm, err := s3.PlanReport(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if warm.OutcomeHits == 0 {
				t.Fatal("first warm PlanReport served no pairs from the restored memo")
			}
			if got, want := planJSON(t, warmPlan2), planJSON(t, coldPlan); got != want {
				t.Fatalf("post-optimize warm plan differs from cold:\nwarm: %s\ncold: %s", got, want)
			}
			if cfg.MaxFamily >= 3 {
				return
			}
			contPlan, cont, err := orig.PlanReport(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := planJSON(t, warmPlan2), planJSON(t, contPlan); got != want {
				t.Fatalf("warm plan differs from the continued session's:\nwarm: %s\ncont: %s", got, want)
			}
			if warm.Attempts != cont.Attempts || warm.OutcomeHits != cont.OutcomeHits {
				t.Fatalf("warm PlanReport %d attempts / %d outcome hits, continued session %d / %d",
					warm.Attempts, warm.OutcomeHits, cont.Attempts, cont.OutcomeHits)
			}
		})
	}
}

// freshPlan cold-opens a session over text and returns its first Plan.
func freshPlan(t *testing.T, ctx context.Context, text string, cfg Config) *Plan {
	t.Helper()
	p, _ := freshPlanReport(t, ctx, text, cfg)
	return p
}

// freshPlanReport cold-opens a session over text and returns its first
// PlanReport.
func freshPlanReport(t *testing.T, ctx context.Context, text string, cfg Config) (*Plan, *Result) {
	t.Helper()
	m, err := irtext.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	s, err := OpenSession(ctx, m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, res, err := s.PlanReport(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return p, res
}

// TestSnapshotRejection covers the failure modes restore must catch:
// corruption, version skew and configuration mismatch.
func TestSnapshotRejection(t *testing.T) {
	ctx := context.Background()
	text := snapshotModuleText(t)
	cfg := Config{Algorithm: SalSSA, Threshold: 2, Target: costmodel.X86_64}
	m, err := irtext.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	s, err := OpenSession(ctx, m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	fresh := func() (*Snapshot, *ir.Module) {
		t.Helper()
		m2, err := irtext.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		return roundTripSnapshot(t, snap), m2
	}

	if cp, m2 := fresh(); true {
		// Edited without re-sealing: the checksum catches it before the
		// config guard would.
		cp.MinInstrs++
		_, err := OpenSessionWithSnapshot(ctx, m2, cfg, cp)
		if err == nil || !strings.Contains(err.Error(), "checksum") {
			t.Fatalf("tampered snapshot: got %v, want a checksum error", err)
		}
	}
	if cp, m2 := fresh(); true {
		cp.Version = SnapshotVersion + 1
		if _, err := OpenSessionWithSnapshot(ctx, m2, cfg, cp); err == nil {
			t.Fatal("future snapshot version accepted")
		}
	}
	if cp, m2 := fresh(); true {
		// A correctly sealed file of the previous format (version 2
		// carried LSH band keys) is refused on its version alone; the
		// caller cold-opens.
		cp.Version = 2
		if err := cp.Seal(); err != nil {
			t.Fatal(err)
		}
		_, err := OpenSessionWithSnapshot(ctx, m2, cfg, cp)
		if err == nil || !strings.Contains(err.Error(), "version 2") {
			t.Fatalf("version-2 snapshot: got %v, want a version error", err)
		}
	}
	if cp, m2 := fresh(); true {
		// Version 5 guarded on a fold switch; its memo may hold verdicts of a
		// session that folded nothing, so it is refused on its version
		// even though every other field would pass.
		cp.Version = 5
		if err := cp.Seal(); err != nil {
			t.Fatal(err)
		}
		_, err := OpenSessionWithSnapshot(ctx, m2, cfg, cp)
		if err == nil || !strings.Contains(err.Error(), "version 5") {
			t.Fatalf("version-5 snapshot: got %v, want a version error", err)
		}
	}
	if cp, m2 := fresh(); true {
		other := cfg
		other.Threshold = 5
		if _, err := OpenSessionWithSnapshot(ctx, m2, other, cp); err == nil {
			t.Fatal("config-mismatched snapshot accepted")
		}
	}
	if cp, m2 := fresh(); true {
		// The outcome memo holds verdicts priced under the snapshot's
		// size model; a pair unprofitable on one target may pay on the
		// other.
		other := cfg
		other.Target = costmodel.Thumb
		_, err := OpenSessionWithSnapshot(ctx, m2, other, cp)
		if err == nil || !strings.Contains(err.Error(), "target") {
			t.Fatalf("target-mismatched snapshot: got %v, want a target error", err)
		}
	}
}

// TestSnapshotDriftReindexesOnly verifies partial reuse: when a
// function drifted between snapshot and restart — its recorded hash no
// longer matches, its body was redefined, or it is new and has no
// snapshot entry at all — only its own memo pairs are lost, the rest
// are restored, and the restored session still plans exactly like a
// cold one over the current module.
func TestSnapshotDriftReindexesOnly(t *testing.T) {
	ctx := context.Background()
	cfg := Config{Algorithm: SalSSA, Threshold: 2, Target: costmodel.X86_64}
	_, snap, text := optimizedSnapshot(t, snapshotModuleText(t), cfg)
	first := snap.Outcomes[0][0]
	// touching counts the snapshot pairs that name snap.Funcs[i].
	touching := func(i int) int {
		n := 0
		for _, p := range snap.Outcomes {
			if p[0] == i || p[1] == i {
				n++
			}
		}
		return n
	}
	// open restores snap (after edit) over m and checks that the memo
	// kept every pair but those naming drifted, and that the first
	// PlanReport serves the rest and plans like a cold open.
	open := func(name string, m *ir.Module, edit func(*Snapshot), drifted int) {
		t.Helper()
		cp := roundTripSnapshot(t, snap)
		edit(cp)
		if err := cp.Seal(); err != nil {
			t.Fatal(err)
		}
		s, err := OpenSessionWithSnapshot(ctx, m, cfg, cp)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := len(snap.Outcomes)
		if drifted >= 0 {
			f := m.FuncByName(snap.Funcs[drifted].Name)
			if r := s.recs.of[f]; len(r.memo)+len(r.back) != 0 {
				t.Fatalf("%s: drifted @%s kept memo pairs", name, f.Name())
			}
			want -= touching(drifted)
		}
		if got := memoPairs(s); got != want {
			t.Fatalf("%s: restored %d memo pairs, want %d", name, got, want)
		}
		warm, res, err := s.PlanReport(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if res.OutcomeHits == 0 {
			t.Fatalf("%s: first warm PlanReport served no pairs from the memo", name)
		}
		if got, want := planJSON(t, warm), planJSON(t, freshPlan(t, ctx, m.String(), cfg)); got != want {
			t.Fatalf("%s: warm plan differs from cold plan:\nwarm: %s\ncold: %s", name, got, want)
		}
	}
	parse := func() *ir.Module {
		t.Helper()
		m, err := irtext.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}

	// Hash-mismatch path: an entry whose recorded hash no longer matches
	// the live body must not be trusted. Flip one hash and re-seal, so
	// the checksum passes and only the per-function check can catch it.
	open("stale hash", parse(), func(cp *Snapshot) { cp.Funcs[first].Hash++ }, first)

	// Redefined body: a memo function becomes a copy of one of its
	// recorded partners, so the pair the memo calls unprofitable now
	// merges. Restoring the stale verdict would hide that merge from the
	// warm plan.
	m := parse()
	f, g := drift(t, m, snap)
	if _, err := irtext.ParseInto(m, strings.Replace(g.String(), "@"+g.Name()+"(", "@"+f.Name()+"(", 1)); err != nil {
		t.Fatalf("redefining @%s: %v", f.Name(), err)
	}
	fi := slices.IndexFunc(snap.Funcs, func(sf SnapshotFunc) bool { return sf.Name == f.Name() })
	open("redefined body", m, func(*Snapshot) {}, fi)

	// Prior-miss path: a function added after the snapshot has no entry;
	// every recorded pair is restored.
	m = parse()
	if _, err := irtext.ParseInto(m, `
define i32 @snapdrift(i32 %x) {
entry:
  %a = add i32 %x, 41
  %b = mul i32 %a, 3
  ret i32 %b
}
`); err != nil {
		t.Fatalf("splice: %v", err)
	}
	open("new function", m, func(*Snapshot) {}, -1)
}

// drift picks a memo pair (f, g) of snap whose two functions in m share
// a signature and whose partner g is big enough that merging a copy of
// it pays.
func drift(t *testing.T, m *ir.Module, snap *Snapshot) (f, g *ir.Function) {
	t.Helper()
	for _, p := range snap.Outcomes {
		f, g := m.FuncByName(snap.Funcs[p[0]].Name), m.FuncByName(snap.Funcs[p[1]].Name)
		if f.Sig().String() == g.Sig().String() && g.NumInstrs() >= 20 {
			return f, g
		}
	}
	t.Fatal("no memo pair of matching signatures")
	return nil, nil
}

// TestSnapshotSaveFile: the atomic file round-trip — SaveFile writes a
// snapshot that LoadSnapshotFile reads back into a restorable value,
// and a re-save over an existing file replaces it completely.
func TestSnapshotSaveFile(t *testing.T) {
	ctx := context.Background()
	cfg := Config{Algorithm: SalSSA, Threshold: 2, Target: costmodel.X86_64}
	s, snap, text := optimizedSnapshot(t, snapshotModuleText(t), cfg)
	defer s.Close()

	path := t.TempDir() + "/s.snap.json"
	if err := snap.SaveFile(path); err != nil {
		t.Fatalf("save: %v", err)
	}
	loaded, err := LoadSnapshotFile(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	m2, err := irtext.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := OpenSessionWithSnapshot(ctx, m2, cfg, loaded)
	if err != nil {
		t.Fatalf("restore from loaded file: %v", err)
	}
	defer warm.Close()
	if got, want := memoPairs(warm), len(snap.Outcomes); got != want {
		t.Fatalf("file round-trip restored %d memo pairs, snapshot carries %d", got, want)
	}

	// Re-save over the existing file: the replacement is complete (the
	// checksum still validates), not an append or a truncation.
	if err := snap.SaveFile(path); err != nil {
		t.Fatalf("re-save: %v", err)
	}
	again, err := LoadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if again.Checksum != snap.Checksum || len(again.Funcs) != len(snap.Funcs) {
		t.Fatalf("re-saved snapshot diverged: %s vs %s", again.Checksum, snap.Checksum)
	}

	if _, err := LoadSnapshotFile(t.TempDir() + "/absent.json"); err == nil {
		t.Fatal("loading a missing snapshot succeeded")
	}
}

// TestSnapshotLinear: Snapshot's allocation grows with the candidates
// and memo pairs it writes, not with memo rows × candidates, which is
// what walking candidate order once per memo row costs.
func TestSnapshotLinear(t *testing.T) {
	ctx := context.Background()
	m := synth.Generate(synth.SuiteProfile(600, 7))
	s, err := OpenSession(ctx, m, Config{Algorithm: SalSSA, Threshold: 1, Target: costmodel.X86_64})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Optimize(ctx); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	cands, rows := len(s.candidateOrder()), 0
	for _, r := range s.recs.of {
		if len(r.memo) > 0 {
			rows++
		}
	}
	bytes, items := after.TotalAlloc-before.TotalAlloc, uint64(cands+len(snap.Outcomes))
	t.Logf("%d candidates, %d memo rows, %d pairs over %d functions: %d B allocated (%d B per candidate or pair)",
		cands, rows, len(snap.Outcomes), len(snap.Funcs), bytes, bytes/items)
	if bytes > 512*items {
		t.Fatalf("Snapshot allocated %d B for %d candidates + %d pairs, want at most 512 B each", bytes, cands, len(snap.Outcomes))
	}
}

// FuzzSnapshotOpen feeds hostile snapshot files through the daemon's
// path — decode, re-seal so the checksum holds, open — over a fixed
// module. Opening must never panic, and an accepted snapshot must leave
// a session whose Optimize yields a verifying module: a restored memo
// can only withhold trials, never corrupt a merge.
func FuzzSnapshotOpen(f *testing.F) {
	cfg := Config{Algorithm: SalSSA, Threshold: 2, Target: costmodel.X86_64}
	text := synth.Generate(synth.Profile{
		Name: "snapfuzz", Seed: 5, Funcs: 16,
		MinSize: 6, AvgSize: 30, MaxSize: 80,
		CloneFrac: 0.5, FamilySize: 3, MutRate: 0.1,
		Loops: 0.5, Switches: 0.4,
	}).String()
	m, err := irtext.Parse(text)
	if err != nil {
		f.Fatal(err)
	}
	s, err := OpenSession(context.Background(), m, cfg)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := s.Optimize(context.Background()); err != nil {
		f.Fatal(err)
	}
	snap, err := s.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	if len(snap.Outcomes) == 0 {
		f.Fatal("seed snapshot carries no memo pairs")
	}
	text = m.String()
	seed, err := json.Marshal(snap)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{"version":6,"algorithm":"SalSSA","threshold":2,"target":"x86-64",` +
		`"funcs":[{"name":"","hash":"0"}],"outcomes":[[0,0],[0,-1],[1,0],[9223372036854775807,0]]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var snap Snapshot
		if json.Unmarshal(data, &snap) != nil || snap.Seal() != nil {
			return
		}
		m, err := irtext.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		s, err := OpenSessionWithSnapshot(context.Background(), m, cfg, &snap)
		if err != nil {
			return
		}
		if _, err := s.Optimize(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := ir.VerifyModule(m); err != nil {
			t.Fatalf("Optimize after an accepted snapshot broke the module: %v", err)
		}
	})
}
