package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	repro "repro"
	"repro/client"
	"repro/internal/serve/api"
	"repro/internal/synth"
)

// testCorpus is a clone-heavy synthetic module, rendered as text: the
// daemon and the local reference session both parse the same bytes.
func testCorpus(t *testing.T, funcs int) string {
	t.Helper()
	m := synth.Generate(synth.Profile{
		Name: "servetest", Seed: 23, Funcs: funcs,
		MinSize: 6, AvgSize: 30, MaxSize: 100,
		CloneFrac: 0.5, FamilySize: 3, MutRate: 0.06,
		Loops: 0.5, Switches: 0.4,
	})
	return m.String()
}

func newTestDaemon(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	return srv, hs
}

// drainDaemon loops plan/apply over HTTP until the daemon session
// reaches its merge fixpoint, returning the committed totals.
func drainDaemon(t *testing.T, ctx context.Context, sc *client.SessionClient) (merges, folds int) {
	t.Helper()
	for round := 0; ; round++ {
		if round > 100 {
			t.Fatal("daemon session did not reach a fixpoint in 100 rounds")
		}
		plan, err := sc.Plan(ctx)
		if err != nil {
			t.Fatalf("plan: %v", err)
		}
		if len(plan.Merges)+len(plan.Folds) == 0 {
			return merges, folds
		}
		rep, err := sc.Apply(ctx, plan)
		if err != nil {
			t.Fatalf("apply: %v", err)
		}
		merges += rep.Merges
		folds += rep.Folds
	}
}

// drainLocal drives a local session to the same fixpoint.
func drainLocal(t *testing.T, ctx context.Context, s *repro.Session) (merges, folds int) {
	t.Helper()
	for round := 0; ; round++ {
		if round > 100 {
			t.Fatal("local session did not reach a fixpoint in 100 rounds")
		}
		rep, err := s.Optimize(ctx)
		if err != nil {
			t.Fatalf("optimize: %v", err)
		}
		if len(rep.Merges)+len(rep.Folds) == 0 {
			return merges, folds
		}
		merges += len(rep.Merges)
		folds += len(rep.Folds)
	}
}

// TestServeDifferential: the daemon's Plan/Apply round-trips over HTTP
// must converge to exactly the module a local Session produces from the
// same text and options — under each finder name the wire accepts, both
// of which select the one finder.
func TestServeDifferential(t *testing.T) {
	ctx := context.Background()
	corpus := testCorpus(t, 48)
	for _, finder := range []string{"exact", "lsh"} {
		t.Run(finder, func(t *testing.T) {
			_, hs := newTestDaemon(t, Config{})
			c := client.New(hs.URL, "differential")
			sc, err := c.CreateSession(ctx, client.CreateSession{
				Name: "diff-" + finder, Module: corpus,
				Finder: finder, Threshold: 2, DupFold: true,
			})
			if err != nil {
				t.Fatalf("create: %v", err)
			}
			dMerges, dFolds := drainDaemon(t, ctx, sc)
			if dMerges+dFolds == 0 {
				t.Fatal("daemon committed nothing on a clone-heavy module")
			}
			daemonText, err := sc.Module(ctx)
			if err != nil {
				t.Fatalf("module: %v", err)
			}

			opt, err := repro.New(repro.WithThreshold(2), repro.WithDupFold(true))
			if err != nil {
				t.Fatal(err)
			}
			m, err := repro.ParseModule(corpus)
			if err != nil {
				t.Fatal(err)
			}
			ls, err := opt.Open(ctx, m)
			if err != nil {
				t.Fatal(err)
			}
			defer ls.Close()
			lMerges, lFolds := drainLocal(t, ctx, ls)

			if dMerges != lMerges || dFolds != lFolds {
				t.Fatalf("daemon committed %d merges/%d folds, local %d/%d",
					dMerges, dFolds, lMerges, lFolds)
			}
			localText := repro.FormatModule(m)
			if daemonText != localText {
				t.Fatalf("daemon module diverged from local session (daemon %d bytes, local %d bytes)",
					len(daemonText), len(localText))
			}
			if _, err := repro.ParseModule(daemonText); err != nil {
				t.Fatalf("daemon module does not reparse: %v", err)
			}
		})
	}
}

// TestServeLegacyCreateFields: the wire CreateSession lost "shards" and
// "commit_parallelism" and ignores "parallelism", but clients written
// against the old contract still send them — notably when they recreate
// a session by name so a journal the previous daemon wrote replays. The
// body must be accepted, the fields ignored, and the recovered state
// must be what was journaled.
func TestServeLegacyCreateFields(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	srvA, hsA := newTestDaemon(t, Config{WALDir: dir})
	create := func(base, module string) api.SessionInfo {
		t.Helper()
		body, err := json.Marshal(map[string]any{
			"name": "legacy", "module": module, "threshold": 2, "dup_fold": true,
			"parallelism": 4, "shards": 3, "commit_parallelism": 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(base+"/v1/sessions", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var info api.SessionInfo
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("create with legacy fields: status %d", resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
			t.Fatal(err)
		}
		return info
	}
	create(hsA.URL, testCorpus(t, 48))
	sc := client.New(hsA.URL, "").Session("legacy")
	plan, err := sc.Plan(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Apply(ctx, plan); err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Optimize(ctx); err != nil {
		t.Fatal(err)
	}
	want, err := captureState(ctx, sc)
	if err != nil {
		t.Fatal(err)
	}
	hsA.Close()
	srvA.Close()

	_, hsB := newTestDaemon(t, Config{WALDir: dir})
	if info := create(hsB.URL, ""); info.Replayed != 2 {
		t.Fatalf("recovery replayed %d records, want 2", info.Replayed)
	}
	got, err := captureState(ctx, client.New(hsB.URL, "").Session("legacy"))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("recovered state diverged: module %d bytes (want %d), plan %q (want %q)",
			len(got.module), len(want.module), got.plan, want.plan)
	}
}

// TestServeUpdateRemove: deltas stream as spliced IR fragments; removal
// drops candidacy; engine name errors surface as 400.
func TestServeUpdateRemove(t *testing.T) {
	ctx := context.Background()
	_, hs := newTestDaemon(t, Config{})
	c := client.New(hs.URL, "deltas")
	sc, err := c.CreateSession(ctx, client.CreateSession{
		Name: "deltas", Module: testCorpus(t, 24), DupFold: true,
	})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	before, err := sc.Info(ctx)
	if err != nil {
		t.Fatal(err)
	}

	// Splice two fresh identical functions; dup-fold must catch them.
	frag := `
define i32 @serve_delta_a(i32 %x) {
entry:
  %r = add i32 %x, 41
  ret i32 %r
}
define i32 @serve_delta_b(i32 %x) {
entry:
  %r = add i32 %x, 41
  ret i32 %r
}
`
	names, err := sc.Update(ctx, frag)
	if err != nil {
		t.Fatalf("update: %v", err)
	}
	if len(names) != 2 || names[0] != "serve_delta_a" || names[1] != "serve_delta_b" {
		t.Fatalf("update returned %v", names)
	}
	after, err := sc.Info(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if after.Funcs != before.Funcs+2 {
		t.Fatalf("funcs %d after splicing 2 into %d", after.Funcs, before.Funcs)
	}
	rep, err := sc.Optimize(ctx)
	if err != nil {
		t.Fatalf("optimize: %v", err)
	}
	if rep.Folds == 0 {
		t.Fatal("spliced duplicates were not folded")
	}

	if err := sc.Remove(ctx, "serve_delta_a"); err != nil {
		t.Fatalf("remove: %v", err)
	}
	// Engine sentinels map to 400.
	err = sc.Remove(ctx, "no_such_function")
	var se *client.StatusError
	if !errors.As(err, &se) || se.Code != 400 {
		t.Fatalf("removing unknown function: got %v, want 400", err)
	}
	if _, err := sc.Update(ctx, "this is not IR"); err == nil {
		t.Fatal("garbage fragment accepted")
	} else if !errors.As(err, &se) || se.Code != 400 {
		t.Fatalf("garbage fragment: got %v, want 400", err)
	}
	// A failed splice must not have touched the module.
	still, err := sc.Info(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if still.Funcs != after.Funcs {
		t.Fatalf("failed splice changed funcs: %d -> %d", after.Funcs, still.Funcs)
	}
}

// TestServeStalePlan: a plan invalidated by an interleaved commit is
// rejected with 409, and replanning resolves it — the daemon's whole
// concurrency-control story in one sequence.
func TestServeStalePlan(t *testing.T) {
	ctx := context.Background()
	_, hs := newTestDaemon(t, Config{})
	c := client.New(hs.URL, "stale")
	sc, err := c.CreateSession(ctx, client.CreateSession{
		Name: "stale", Module: testCorpus(t, 48), Threshold: 2, DupFold: true,
	})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	plan, err := sc.Plan(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Merges)+len(plan.Folds) == 0 {
		t.Fatal("empty first plan")
	}
	if _, err := sc.Apply(ctx, plan); err != nil {
		t.Fatalf("first apply: %v", err)
	}
	// The same plan again: every entry is now stale; nothing commits.
	_, err = sc.Apply(ctx, plan)
	if !client.IsConflict(err) {
		t.Fatalf("stale apply: got %v, want 409 conflict", err)
	}
	// Replan-and-retry converges.
	drainDaemon(t, ctx, sc)
}

// TestServeAdmission: the session cap, the function quota and the
// global in-flight gate reject with the documented status codes.
func TestServeAdmission(t *testing.T) {
	ctx := context.Background()
	srv, hs := newTestDaemon(t, Config{MaxSessions: 1, MaxClientFuncs: 30})
	c := client.New(hs.URL, "quota")
	small := testCorpus(t, 8)

	if _, err := c.CreateSession(ctx, client.CreateSession{Name: "big", Module: testCorpus(t, 40)}); !client.IsThrottled(err) {
		t.Fatalf("40 funcs past a 30-func quota: got %v, want 429", err)
	}
	sc, err := c.CreateSession(ctx, client.CreateSession{Name: "a", Module: small})
	if err != nil {
		t.Fatalf("create within quota: %v", err)
	}
	if _, err := c.CreateSession(ctx, client.CreateSession{Name: "b", Module: small}); !client.IsThrottled(err) {
		t.Fatalf("second session past MaxSessions=1: got %v, want 429", err)
	}
	var se *client.StatusError
	if _, err := c.CreateSession(ctx, client.CreateSession{Name: "bad/name", Module: small}); !errors.As(err, &se) || se.Code != 400 {
		t.Fatalf("invalid name: got %v, want 400", err)
	}
	if _, err := c.CreateSession(ctx, client.CreateSession{Name: "neg", Module: small, Parallelism: -1}); !errors.As(err, &se) || se.Code != 400 {
		t.Fatalf("negative parallelism: got %v, want 400", err)
	}
	if _, err := c.CreateSession(ctx, client.CreateSession{Name: "f", Module: small, Finder: "minhash"}); !errors.As(err, &se) || se.Code != 400 {
		t.Fatalf("unknown finder: got %v, want 400", err)
	}
	// Duplicate name (after freeing a session slot) is a conflict.
	if err := sc.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateSession(ctx, client.CreateSession{Name: "a", Module: small}); err != nil {
		t.Fatalf("recreate after delete: %v", err)
	}
	if _, err := c.CreateSession(ctx, client.CreateSession{Name: "a", Module: small}); !client.IsConflict(err) {
		t.Fatalf("duplicate name: got %v, want 409", err)
	}

	// Saturate the global gate and watch a request bounce with 503.
	srv.inflight.Add(int64(srv.cfg.MaxInflight))
	_, err = c.Session("a").Info(ctx)
	srv.inflight.Add(-int64(srv.cfg.MaxInflight))
	if !errors.As(err, &se) || se.Code != 503 {
		t.Fatalf("saturated server: got %v, want 503", err)
	}
	if _, err := c.Session("a").Info(ctx); err != nil {
		t.Fatalf("after saturation cleared: %v", err)
	}
	// Unknown session is 404.
	if _, err := c.Session("ghost").Plan(ctx); !errors.As(err, &se) || se.Code != 404 {
		t.Fatalf("unknown session: got %v, want 404", err)
	}
}

// TestServeWarmRestart: snapshot a session, delete it, recreate it by
// name with no module body — the daemon restores the persisted module,
// accepts the index snapshot, and serves the first Plan with zero
// fingerprint rebuilds (SearchStats.Built == 0 end to end). The recreate
// sends the other finder name: both select the one finder, so a session
// created under either restores under the other.
func TestServeWarmRestart(t *testing.T) {
	ctx := context.Background()
	for _, finder := range []string{"exact", "lsh"} {
		t.Run(finder, func(t *testing.T) {
			other := map[string]string{"exact": "lsh", "lsh": "exact"}[finder]
			dir := t.TempDir()
			_, hs := newTestDaemon(t, Config{SnapshotDir: dir})
			c := client.New(hs.URL, "warm")
			corpus := testCorpus(t, 32)
			// MaxFamily 2 keeps plans flatten-free: the family registry
			// is session state that a snapshot intentionally drops, so a
			// flattening plan would differ across the restart by design.
			sc, err := c.CreateSession(ctx, client.CreateSession{
				Name: "warm-" + finder, Module: corpus, Finder: finder, DupFold: true, MaxFamily: 2,
			})
			if err != nil {
				t.Fatalf("create: %v", err)
			}
			if sc.CreateInfo().Warm {
				t.Fatal("cold create reported warm")
			}
			if _, err := sc.Optimize(ctx); err != nil {
				t.Fatal(err)
			}
			coldPlan, err := sc.Plan(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if err := sc.Snapshot(ctx); err != nil {
				t.Fatalf("snapshot: %v", err)
			}
			if err := sc.Close(ctx); err != nil {
				t.Fatal(err)
			}

			// "Restart": recreate by name only. The corpus travels via
			// the snapshot directory, the index via the snapshot.
			sc2, err := c.CreateSession(ctx, client.CreateSession{
				Name: "warm-" + finder, Finder: other, DupFold: true, MaxFamily: 2,
			})
			if err != nil {
				t.Fatalf("warm create: %v", err)
			}
			info := sc2.CreateInfo()
			if !info.Warm {
				t.Fatal("recreate from snapshot not reported warm")
			}
			if info.Built != 0 {
				t.Fatalf("warm restart rebuilt %d index entries, want 0", info.Built)
			}
			warmPlan, err := sc2.Plan(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if len(warmPlan.Merges) != len(coldPlan.Merges) || len(warmPlan.Folds) != len(coldPlan.Folds) {
				t.Fatalf("warm plan %d merges/%d folds, cold plan %d/%d",
					len(warmPlan.Merges), len(warmPlan.Folds), len(coldPlan.Merges), len(coldPlan.Folds))
			}
			after, err := sc2.Info(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if after.Built != 0 {
				t.Fatalf("first warm Plan built %d index entries, want 0", after.Built)
			}

			// Drift tolerance: redefine one function, snapshot-restart
			// again — only the drifted function rebuilds.
			frag := fmt.Sprintf("define i32 @%s(i32 %%x) {\nentry:\n  %%r = mul i32 %%x, 3\n  ret i32 %%r\n}\n", "serve_drift")
			if _, err := sc2.Update(ctx, frag); err != nil {
				t.Fatalf("splicing drift: %v", err)
			}
			if err := sc2.Snapshot(ctx); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestServeOldSnapshotColdOpens: an index snapshot of the previous
// format version on disk (version 2 carried LSH band keys) is a stale
// cache, not an error — recreating the session restores the module
// text, rejects the snapshot and rebuilds the index cold.
func TestServeOldSnapshotColdOpens(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	_, hs := newTestDaemon(t, Config{SnapshotDir: dir})
	c := client.New(hs.URL, "old")
	create := client.CreateSession{Name: "old-snap", Module: testCorpus(t, 32), Finder: "lsh", DupFold: true, MaxFamily: 2}
	sc, err := c.CreateSession(ctx, create)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	coldPlan, err := sc.Plan(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Snapshot(ctx); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if err := sc.Close(ctx); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, "old-snap.snap.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap repro.SessionSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	snap.Version = 2
	if err := snap.Seal(); err != nil {
		t.Fatal(err)
	}
	if data, err = json.Marshal(&snap); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	create.Module = ""
	sc2, err := c.CreateSession(ctx, create)
	if err != nil {
		t.Fatalf("recreate over a version-2 snapshot: %v", err)
	}
	info := sc2.CreateInfo()
	if info.Warm {
		t.Fatal("version-2 snapshot accepted as warm")
	}
	if info.Built == 0 {
		t.Fatal("cold open built no index entries")
	}
	plan, err := sc2.Plan(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Merges) != len(coldPlan.Merges) || len(plan.Folds) != len(coldPlan.Folds) {
		t.Fatalf("plan after fallback %d merges/%d folds, want %d/%d",
			len(plan.Merges), len(plan.Folds), len(coldPlan.Merges), len(coldPlan.Folds))
	}
}

// TestServeStats: the daemon accounts its operations and warm restores.
func TestServeStats(t *testing.T) {
	ctx := context.Background()
	_, hs := newTestDaemon(t, Config{})
	c := client.New(hs.URL, "stats")
	if err := c.Healthz(ctx); err != nil {
		t.Fatalf("healthz: %v", err)
	}
	if _, err := c.CreateSession(ctx, client.CreateSession{Name: "s", Module: testCorpus(t, 8)}); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Sessions != 1 {
		t.Fatalf("stats sessions = %d, want 1", st.Sessions)
	}
	if st.Ops == 0 {
		t.Fatal("stats ops = 0 after a create")
	}
}
