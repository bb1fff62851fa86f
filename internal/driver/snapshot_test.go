package driver

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/ir"
	"repro/internal/irtext"
	"repro/internal/search"
	"repro/internal/synth"
)

// snapshotConfigs is the grid the snapshot tests sweep: dup-fold ×
// family tracking.
func snapshotConfigs() []Config {
	var out []Config
	for _, fold := range []bool{false, true} {
		for _, fam := range []int{0, 4} {
			out = append(out, Config{
				Algorithm: SalSSA, Threshold: 2, Target: costmodel.X86_64,
				DupFold: fold, MaxFamily: fam,
			})
		}
	}
	return out
}

// snapshotFinders are the finder names a snapshot file can record: this
// code writes "lsh", and data dirs written when "exact" was a separate
// finder (and the default) hold that name. Both must restore.
var snapshotFinders = []string{search.KindExact.String(), search.KindLSH.String()}

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

// recordedUnder is roundTripSnapshot for a file that recorded the given
// finder name, re-sealed so only the name differs.
func recordedUnder(t *testing.T, snap *Snapshot, finder string) *Snapshot {
	t.Helper()
	out := roundTripSnapshot(t, snap)
	out.Finder = finder
	if err := out.Seal(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSnapshotRoundTrip is the satellite's save → restart → load
// differential: a session restored from a snapshot must produce the
// same Plan, bit for bit, as a cold OpenSession over the same module
// text — both on a fresh module and after an Optimize has rewritten it —
// and the restore must not rebuild the index (Built stays 0 through the
// first Plan), whichever finder name the snapshot recorded.
func TestSnapshotRoundTrip(t *testing.T) {
	ctx := context.Background()
	text := snapshotModuleText(t)
	for _, finder := range snapshotFinders {
		for _, cfg := range snapshotConfigs() {
			t.Run(fmt.Sprintf("%s-fold=%v-fam=%d", finder, cfg.DupFold, cfg.MaxFamily), func(t *testing.T) {
				// Fresh-module snapshot.
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
				coldPlan, err := s1.Plan(ctx)
				if err != nil {
					t.Fatal(err)
				}

				m2, err := irtext.Parse(text)
				if err != nil {
					t.Fatal(err)
				}
				s2, err := OpenSessionWithSnapshot(ctx, m2, cfg, recordedUnder(t, snap, finder))
				if err != nil {
					t.Fatalf("warm open: %v", err)
				}
				st, err := s2.SearchStats()
				if err != nil {
					t.Fatal(err)
				}
				if st.Built != 0 {
					t.Fatalf("warm open rebuilt %d index entries, want 0", st.Built)
				}
				warmPlan, err := s2.Plan(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if st, _ = s2.SearchStats(); st.Built != 0 {
					t.Fatalf("first warm Plan rebuilt %d index entries, want 0", st.Built)
				}
				if got, want := planJSON(t, warmPlan), planJSON(t, coldPlan); got != want {
					t.Fatalf("warm plan differs from cold plan:\nwarm: %s\ncold: %s", got, want)
				}

				// Post-optimize snapshot: run to a fixpoint, snapshot the
				// session (outcome memo now populated), persist the mutated
				// module as text and restart from both artifacts.
				if _, err := s1.Optimize(ctx); err != nil {
					t.Fatal(err)
				}
				if _, err := s1.Optimize(ctx); err != nil {
					t.Fatal(err)
				}
				snap2, err := s1.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				optText := m1.String()
				coldPlan2 := freshPlan(t, ctx, optText, cfg)

				m3, err := irtext.Parse(optText)
				if err != nil {
					t.Fatal(err)
				}
				s3, err := OpenSessionWithSnapshot(ctx, m3, cfg, recordedUnder(t, snap2, finder))
				if err != nil {
					t.Fatalf("warm open after optimize: %v", err)
				}
				if st, _ := s3.SearchStats(); st.Built != 0 {
					t.Fatalf("warm open after optimize rebuilt %d index entries, want 0", st.Built)
				}
				warmPlan2, err := s3.Plan(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := planJSON(t, warmPlan2), planJSON(t, coldPlan2); got != want {
					t.Fatalf("post-optimize warm plan differs from cold:\nwarm: %s\ncold: %s", got, want)
				}
			})
		}
	}
}

// freshPlan cold-opens a session over text and returns its first Plan.
func freshPlan(t *testing.T, ctx context.Context, text string, cfg Config) *Plan {
	t.Helper()
	m, err := irtext.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	s, err := OpenSession(ctx, m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.Plan(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return p
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
		cp.Funcs[0].Hash++
		if _, err := OpenSessionWithSnapshot(ctx, m2, cfg, cp); err == nil {
			t.Fatal("tampered snapshot accepted")
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
		other := cfg
		other.Threshold = 5
		if _, err := OpenSessionWithSnapshot(ctx, m2, other, cp); err == nil {
			t.Fatal("config-mismatched snapshot accepted")
		}
	}
	if cp, m2 := fresh(); true {
		// The recorded finder name is not part of the guard: a snapshot
		// recorded under the other name restores.
		cp.Finder = search.KindExact.String()
		if err := cp.Seal(); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenSessionWithSnapshot(ctx, m2, cfg, cp); err != nil {
			t.Fatalf("finder-mismatched snapshot rejected: %v", err)
		}
	}
}

// TestSnapshotDriftReindexesOnly verifies partial reuse: when one
// function drifted between snapshot and restart — its recorded hash no
// longer matches, or it is new and has no snapshot entry at all — only
// it is rebuilt (Built counts it) and the restored session still plans
// exactly like a cold one over the current module.
func TestSnapshotDriftReindexesOnly(t *testing.T) {
	ctx := context.Background()
	text := snapshotModuleText(t)
	cfg := Config{Algorithm: SalSSA, Threshold: 2, Target: costmodel.X86_64}
	for _, finder := range snapshotFinders {
		t.Run(finder, func(t *testing.T) {
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

			// Hash-mismatch path: a snapshot entry whose recorded hash no
			// longer matches the live body must not be trusted. Flip one
			// hash and re-seal (so the checksum passes and only the
			// per-function validation can catch it).
			stale := recordedUnder(t, snap, finder)
			stale.Funcs[0].Hash++
			if err := stale.Seal(); err != nil {
				t.Fatal(err)
			}
			m2, err := irtext.Parse(text)
			if err != nil {
				t.Fatal(err)
			}
			s2, err := OpenSessionWithSnapshot(ctx, m2, cfg, stale)
			if err != nil {
				t.Fatal(err)
			}
			if st, _ := s2.SearchStats(); st.Built != 1 {
				t.Fatalf("Built = %d after one stale hash, want 1", st.Built)
			}
			warm, err := s2.Plan(ctx)
			if err != nil {
				t.Fatal(err)
			}
			cold := freshPlan(t, ctx, text, cfg)
			if got, want := planJSON(t, warm), planJSON(t, cold); got != want {
				t.Fatalf("stale-hash warm plan differs from cold plan:\nwarm: %s\ncold: %s", got, want)
			}

			// Prior-miss path: a function added after the snapshot has no
			// entry and is indexed from scratch; everything else is reused.
			m3, err := irtext.Parse(text)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := irtext.ParseInto(m3, `
define i32 @snapdrift(i32 %x) {
entry:
  %a = add i32 %x, 41
  %b = mul i32 %a, 3
  ret i32 %b
}
`); err != nil {
				t.Fatalf("splice: %v", err)
			}
			s3, err := OpenSessionWithSnapshot(ctx, m3, cfg, recordedUnder(t, snap, finder))
			if err != nil {
				t.Fatal(err)
			}
			if st, _ := s3.SearchStats(); st.Built != 1 {
				t.Fatalf("Built = %d after one new function, want 1", st.Built)
			}
			warm3, err := s3.Plan(ctx)
			if err != nil {
				t.Fatal(err)
			}
			cold3 := freshPlan(t, ctx, m3.String(), cfg)
			if got, want := planJSON(t, warm3), planJSON(t, cold3); got != want {
				t.Fatalf("new-function warm plan differs from cold plan:\nwarm: %s\ncold: %s", got, want)
			}
		})
	}
}

// TestSnapshotSaveFile: the atomic file round-trip — SaveFile writes a
// snapshot that LoadSnapshotFile reads back into a restorable value,
// and a re-save over an existing file replaces it completely.
func TestSnapshotSaveFile(t *testing.T) {
	ctx := context.Background()
	cfg := Config{Algorithm: SalSSA, Threshold: 2, Target: costmodel.X86_64, DupFold: true}
	m, err := irtext.Parse(snapshotModuleText(t))
	if err != nil {
		t.Fatal(err)
	}
	s, err := OpenSession(ctx, m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	path := t.TempDir() + "/s.snap.json"
	if err := snap.SaveFile(path); err != nil {
		t.Fatalf("save: %v", err)
	}
	loaded, err := LoadSnapshotFile(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	m2, err := irtext.Parse(snapshotModuleText(t))
	if err != nil {
		t.Fatal(err)
	}
	warm, err := OpenSessionWithSnapshot(ctx, m2, cfg, loaded)
	if err != nil {
		t.Fatalf("restore from loaded file: %v", err)
	}
	defer warm.Close()
	st, err := warm.SearchStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Built != 0 {
		t.Fatalf("file round-trip rebuilt %d index entries, want 0", st.Built)
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
