package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	repro "repro"
	"repro/client"
	"repro/internal/ir"
	"repro/internal/irtext"
	"repro/internal/search"
	"repro/internal/serve/api"
	"repro/internal/synth"
)

// testCorpus is a clone-heavy synthetic module, rendered as text: the
// daemon and the local reference session both parse the same bytes.
func testCorpus(t testing.TB, funcs int) string {
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
// "commit_parallelism" and ignores "parallelism" and "canon", but
// clients written against the old contract still send them — notably
// when they recreate a session by name so a journal the previous daemon
// wrote replays. The
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
			"parallelism": 4, "shards": 3, "commit_parallelism": 2, "canon": true,
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

// TestServeForgedFold: a POSTed plan whose fold names two different
// functions — one of the same signature, one of another — is a stale
// plan (409), not a miscompile or a panic: the session is not
// quarantined and answers the next plan.
func TestServeForgedFold(t *testing.T) {
	const module = `
define i32 @a(i32 %x, i32 %y) {
entry:
  %s = add i32 %x, %y
  %m = mul i32 %s, 3
  ret i32 %m
}
define i32 @b(i32 %x, i32 %y) {
entry:
  %s = sub i32 %x, %y
  %m = mul i32 %s, 5
  ret i32 %m
}
define i64 @c(i64 %x) {
entry:
  %s = add i64 %x, 1
  %m = mul i64 %s, 7
  ret i64 %m
}
`
	m, err := irtext.Parse(module)
	if err != nil {
		t.Fatal(err)
	}
	hash := func(name string) uint64 { return search.HashFunction(m.FuncByName(name)) }
	ctx := context.Background()
	_, hs := newTestDaemon(t, Config{})
	c := client.New(hs.URL, "forged")
	sc, err := c.CreateSession(ctx, client.CreateSession{Name: "forged", Module: module, Threshold: 2})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	for _, rep := range []string{"c", "b"} {
		forged := &client.Plan{Folds: []repro.PlannedFold{{Dup: "a", Rep: rep, Profit: 1, DupHash: hash("a"), RepHash: hash(rep)}}}
		if _, err := sc.Apply(ctx, forged); !client.IsConflict(err) {
			t.Fatalf("fold of @a into @%s: got %v, want 409 conflict", rep, err)
		}
		info, err := sc.Info(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if info.Quarantined {
			t.Fatalf("fold of @a into @%s quarantined the session", rep)
		}
		if _, err := sc.Plan(ctx); err != nil {
			t.Fatalf("plan after the refused fold into @%s: %v", rep, err)
		}
	}
}

// TestServeApplyRefusesForwarder: a forwarding body is never a merge
// partner, so a hand-written plan that merges a member thunk the
// session's own Optimize left behind is a 409 conflict — the module
// unchanged, nothing quarantined — like any other stale plan.
func TestServeApplyRefusesForwarder(t *testing.T) {
	ctx := context.Background()
	_, hs := newTestDaemon(t, Config{})
	c := client.New(hs.URL, "fwd")
	sc, err := c.CreateSession(ctx, client.CreateSession{Name: "fwd", Module: testCorpus(t, 24), Threshold: 2})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	plan, err := sc.Plan(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Merges) == 0 {
		t.Fatal("the corpus plans no merge: no member thunk to name")
	}
	if _, err := sc.Apply(ctx, plan); err != nil {
		t.Fatal(err)
	}
	before, err := sc.Module(ctx)
	if err != nil {
		t.Fatal(err)
	}
	m, err := irtext.Parse(before)
	if err != nil {
		t.Fatal(err)
	}
	thunk := m.FuncByName(plan.Merges[0].F1)
	var plain string
	for _, f := range m.Defined() {
		if ir.Forwardee(f) == nil && !strings.HasPrefix(f.Name(), "merged.") {
			plain = f.Name()
			break
		}
	}
	if ir.Forwardee(thunk) == nil || plain == "" {
		t.Fatalf("@%s is not a thunk, or no plain function is left (%q)", thunk.Name(), plain)
	}
	hash := func(name string) uint64 { return search.HashFunction(m.FuncByName(name)) }
	forged := &client.Plan{Merges: []repro.PlannedMerge{{
		F1: thunk.Name(), F2: plain, Hash1: hash(thunk.Name()), Hash2: hash(plain),
	}}}
	if _, err := sc.Apply(ctx, forged); !client.IsConflict(err) {
		t.Fatalf("merge of thunk @%s with @%s: got %v, want 409 conflict", thunk.Name(), plain, err)
	}
	if after, err := sc.Module(ctx); err != nil || after != before {
		t.Fatalf("the refused Apply changed the module (err %v)", err)
	}
	if info, err := sc.Info(ctx); err != nil || info.Quarantined {
		t.Fatalf("session after the refused Apply: %+v, %v", info, err)
	}
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
// accepts the snapshot and restores its outcome memo. The proof is the
// memo: the first warm Optimize serves pairs from it (outcome_hits > 0)
// where a cold session over the same text serves none, it reports and
// plans exactly what the original session, continued, did, and it
// produces the module the cold session produces. A function redefined
// on disk behind the snapshot's back loses its memo pairs, so the
// restart still optimizes like a cold open. The recreate sends the
// other finder name: both select the one finder, so a session created
// under either restores under the other.
func TestServeWarmRestart(t *testing.T) {
	ctx := context.Background()
	for _, finder := range []string{"exact", "lsh"} {
		t.Run(finder, func(t *testing.T) {
			other := map[string]string{"exact": "lsh", "lsh": "exact"}[finder]
			dir := t.TempDir()
			_, hs := newTestDaemon(t, Config{SnapshotDir: dir})
			c := client.New(hs.URL, "warm")
			// MaxFamily 2 keeps runs flatten-free: the family registry is
			// session state that a snapshot intentionally drops, so a
			// flattening run would differ across the restart by design.
			create := client.CreateSession{Name: "warm", Module: testCorpus(t, 32), Finder: finder, DupFold: true, MaxFamily: 2}
			sc, err := c.CreateSession(ctx, create)
			if err != nil {
				t.Fatalf("create: %v", err)
			}
			if sc.CreateInfo().Warm {
				t.Fatal("cold create reported warm")
			}
			if _, err := sc.Optimize(ctx); err != nil {
				t.Fatal(err)
			}
			if err := sc.Snapshot(ctx); err != nil {
				t.Fatalf("snapshot: %v", err)
			}
			text, err := sc.Module(ctx)
			if err != nil {
				t.Fatal(err)
			}
			cont := captureRun(t, ctx, sc)
			if err := sc.Close(ctx); err != nil {
				t.Fatal(err)
			}

			// "Restart": recreate by name only. The module travels via
			// the snapshot directory, the memo via the snapshot.
			create.Module, create.Finder = "", other
			warm := warmRun(t, ctx, c, create)
			if warm.rep.OutcomeHits == 0 {
				t.Fatal("first warm Optimize served no pairs from the restored memo")
			}
			// The continued session's module text differs in value names
			// only: its bodies were never reparsed.
			if warm.rep != cont.rep || warm.plan != cont.plan {
				t.Fatalf("warm restart diverged from the continued session:\nwarm: %+v %s\ncont: %+v %s", warm.rep, warm.plan, cont.rep, cont.plan)
			}
			cold := coldRun(t, ctx, c, "cold", text)
			if cold.rep.OutcomeHits != 0 {
				t.Fatalf("cold open served %d pairs from a memo, want 0", cold.rep.OutcomeHits)
			}
			warm.rep.OutcomeHits = 0
			if warm != cold {
				t.Fatalf("warm restart diverged from a cold open:\nwarm: %+v\ncold: %+v", warm.rep, cold.rep)
			}

			// Drift: redefine a memo function on disk as a near copy of
			// its recorded partner. The snapshot still validates, but the
			// pair it calls unprofitable now merges; restoring that
			// verdict would keep the warm run from finding the merge a
			// cold run finds.
			drifted := driftModule(t, text, filepath.Join(dir, "warm.snap.json"))
			if err := os.WriteFile(filepath.Join(dir, "warm.ir"), []byte(drifted), 0o644); err != nil {
				t.Fatal(err)
			}
			warm = warmRun(t, ctx, c, create)
			if warm.rep.OutcomeHits == 0 {
				t.Fatal("warm Optimize over a drifted module served no pairs from the memo")
			}
			cold = coldRun(t, ctx, c, "drift-cold", drifted)
			warm.rep.OutcomeHits = 0
			if warm != cold {
				t.Fatalf("warm restart over a drifted module diverged from a cold open:\nwarm: %+v\ncold: %+v", warm.rep, cold.rep)
			}
		})
	}
}

// run is what one Optimize reported and produced, and the plan after it.
type run struct {
	rep          client.Report
	module, plan string
}

// captureRun optimizes sc once and captures the result.
func captureRun(t *testing.T, ctx context.Context, sc *client.SessionClient) run {
	t.Helper()
	rep, err := sc.Optimize(ctx)
	if err != nil {
		t.Fatal(err)
	}
	module, err := sc.Module(ctx)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sc.Plan(ctx)
	if err != nil {
		t.Fatal(err)
	}
	plan.RunID = 0
	data, err := json.Marshal(plan)
	if err != nil {
		t.Fatal(err)
	}
	return run{rep, module, string(data)}
}

// warmRun recreates the persisted session, checks it opened warm, and
// captures its first Optimize.
func warmRun(t *testing.T, ctx context.Context, c *client.Client, create client.CreateSession) run {
	t.Helper()
	sc, err := c.CreateSession(ctx, create)
	if err != nil {
		t.Fatalf("warm create: %v", err)
	}
	if !sc.CreateInfo().Warm {
		t.Fatal("recreate from snapshot not reported warm")
	}
	defer sc.Close(ctx)
	return captureRun(t, ctx, sc)
}

// coldRun opens a session over text under name and captures its first
// Optimize.
func coldRun(t *testing.T, ctx context.Context, c *client.Client, name, text string) run {
	t.Helper()
	sc, err := c.CreateSession(ctx, client.CreateSession{Name: name, Module: text, DupFold: true, MaxFamily: 2})
	if err != nil {
		t.Fatalf("cold create: %v", err)
	}
	defer sc.Close(ctx)
	return captureRun(t, ctx, sc)
}

// driftModule returns text with one function of the snapshot's memo
// redefined as its recorded partner's body under its own signature
// (arguments it lacks read its first one instead): a near copy, so the
// pair the memo calls unprofitable now merges.
func driftModule(t *testing.T, text, snapPath string) string {
	t.Helper()
	data, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	var snap repro.SessionSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	m, err := repro.ParseModule(text)
	if err != nil {
		t.Fatal(err)
	}
	arg := regexp.MustCompile(`%arg(\d+)\b`)
	for _, p := range snap.Outcomes {
		f, g := m.FuncByName(snap.Funcs[p[0]].Name), m.FuncByName(snap.Funcs[p[1]].Name)
		if g.NumInstrs() < 40 {
			continue
		}
		head, _, _ := strings.Cut(f.String(), "\n")
		_, body, _ := strings.Cut(g.String(), "\n")
		body = arg.ReplaceAllStringFunc(body, func(a string) string {
			if n, _ := strconv.Atoi(a[len("%arg"):]); n >= len(f.Params()) {
				return "%arg0"
			}
			return a
		})
		if _, err := repro.SpliceModule(m, head+"\n"+body); err != nil {
			t.Fatalf("redefining @%s: %v", f.Name(), err)
		}
		return repro.FormatModule(m)
	}
	t.Fatal("no memo pair to drift")
	return ""
}

// TestServeOldSnapshotColdOpens: a snapshot an older build wrote and
// this one cannot use is a stale cache, not an error — recreating the
// session restores the module text, rejects the snapshot and opens
// cold. Four such snapshots, each sealed so that only its version can
// refuse it: three of earlier format versions (version 2 carried LSH
// band keys, version 3 did not record its size-model target, version 4
// carried every candidate's fingerprint and the finder name), and one
// indexed through canonical views, which this build no longer has.
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
	// An Optimize fills the memo, so the files below carry functions.
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

	path := filepath.Join(dir, "old-snap.snap.json")
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	create.Module = ""
	for name, stale := range map[string]func(map[string]any){
		"version-2": func(s map[string]any) { s["version"] = 2 },
		"version-3": func(s map[string]any) { s["version"] = 3; delete(s, "target") },
		"version-4": func(s map[string]any) {
			s["version"], s["finder"] = 4, "lsh"
			for _, f := range s["funcs"].([]any) {
				f := f.(map[string]any)
				f["blocks"], f["size"], f["ops"] = 1, 4, []int{1, 3, 9, 1}
			}
		},
		"canon": func(s map[string]any) { s["version"], s["canon"] = 3, "mem2reg+simplify+normalize+gvn" },
	} {
		var raw map[string]any
		if err := json.Unmarshal(orig, &raw); err != nil {
			t.Fatal(err)
		}
		stale(raw)
		data, err := json.Marshal(raw)
		if err != nil {
			t.Fatal(err)
		}
		// Seal it as this build reads it, so the checksum holds.
		var snap repro.SessionSnapshot
		if err := json.Unmarshal(data, &snap); err != nil {
			t.Fatal(err)
		}
		if err := snap.Seal(); err != nil {
			t.Fatal(err)
		}
		raw["checksum"] = snap.Checksum
		if data, err = json.Marshal(raw); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}

		sc2, err := c.CreateSession(ctx, create)
		if err != nil {
			t.Fatalf("recreate over a %s snapshot: %v", name, err)
		}
		info := sc2.CreateInfo()
		if info.Warm {
			t.Fatalf("%s snapshot accepted as warm", name)
		}
		if info.Built == 0 {
			t.Fatalf("%s: cold open built no index entries", name)
		}
		plan, err := sc2.Plan(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(plan.Merges) != len(coldPlan.Merges) || len(plan.Folds) != len(coldPlan.Folds) {
			t.Fatalf("%s: plan after fallback %d merges/%d folds, want %d/%d", name,
				len(plan.Merges), len(plan.Folds), len(coldPlan.Merges), len(coldPlan.Folds))
		}
		if err := sc2.Close(ctx); err != nil {
			t.Fatal(err)
		}
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
