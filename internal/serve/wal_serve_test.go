package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"repro/client"
	"repro/internal/fault"
	"repro/internal/ir"
)

// TestServeWALRecovery is the straight-line recovery story over HTTP:
// journal a few mutations, lose the daemon without a snapshot, recreate
// the session by name on a fresh daemon over the same directory — the
// journal tail replays and the state matches; and because recovery
// re-persists, a second restart replays nothing.
func TestServeWALRecovery(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	corpus := testCorpus(t, 16)

	srvA, hsA := newTestDaemon(t, Config{WALDir: dir})
	c := client.New(hsA.URL, "walrec")
	sc, err := c.CreateSession(ctx, chaosOpts("rec", corpus))
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := sc.Update(ctx, chaosFragDup); err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Optimize(ctx); err != nil {
		t.Fatal(err)
	}
	want, err := captureState(ctx, sc)
	if err != nil {
		t.Fatal(err)
	}
	// The daemon goes away without ever snapshotting: the update and the
	// optimize exist only in the journal.
	hsA.Close()
	srvA.Close()

	_, hsB := newTestDaemon(t, Config{WALDir: dir})
	cB := client.New(hsB.URL, "walrec")
	scB, err := cB.CreateSession(ctx, chaosOpts("rec", ""))
	if err != nil {
		t.Fatalf("recovery create: %v", err)
	}
	if got := scB.CreateInfo().Replayed; got != 2 {
		t.Fatalf("recovery replayed %d records, want 2", got)
	}
	got, err := captureState(ctx, scB)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("recovered state diverged: module %d bytes (want %d), plan %q (want %q)",
			len(got.module), len(want.module), got.plan, want.plan)
	}

	// Recovery converged: delete and recreate replays nothing and is
	// warm (the re-persist wrote a fresh snapshot too).
	if err := scB.Close(ctx); err != nil {
		t.Fatal(err)
	}
	scC, err := cB.CreateSession(ctx, chaosOpts("rec", ""))
	if err != nil {
		t.Fatalf("post-recovery create: %v", err)
	}
	info := scC.CreateInfo()
	if info.Replayed != 0 {
		t.Fatalf("second recovery replayed %d records, want 0", info.Replayed)
	}
	if !info.Warm {
		t.Fatal("second recovery not warm despite the re-persisted snapshot")
	}
}

// tripCtx is a request context that reads as cancelled once tripped
// says so. The engine polls Err on the goroutine serving the request,
// so tripped may inspect the session's module.
type tripCtx struct {
	context.Context
	tripped func() bool
}

func (c tripCtx) Err() error {
	if c.tripped() {
		return context.Canceled
	}
	return c.Context.Err()
}

// TestServeApplyJournalsCommittedPrefix: an Apply cancelled after its
// first merge keeps the folds and that merge in the live module, so the
// daemon journals them before answering the error; a daemon recovering
// from the journal alone then holds the live module byte for byte, and
// a plan applied after the failure replays on top of it.
func TestServeApplyJournalsCommittedPrefix(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	srvA, hsA := newTestDaemon(t, Config{WALDir: dir})
	c := client.New(hsA.URL, "prefix")
	sc, err := c.CreateSession(ctx, client.CreateSession{Name: "prefix", Module: testCorpus(t, 48), Threshold: 2})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	plan, err := sc.Plan(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Folds) == 0 || len(plan.Merges) < 2 {
		t.Fatalf("plan has %d folds and %d merges, want folds and two merges", len(plan.Folds), len(plan.Merges))
	}
	// Cancel as soon as the first merge has made @F1 a thunk: Apply
	// sees it before the second merge.
	m := srvA.sessions["prefix"].m
	first := plan.Merges[0].F1
	trip := tripCtx{Context: ctx, tripped: func() bool { return ir.Forwardee(m.FuncByName(first)) != nil }}
	body, err := json.Marshal(plan)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", "/v1/sessions/prefix/apply", bytes.NewReader(body)).WithContext(trip)
	rec := httptest.NewRecorder()
	srvA.Handler().ServeHTTP(rec, req)
	if rec.Code/100 == 2 {
		t.Fatalf("cancelled apply answered %d", rec.Code)
	}
	live, err := sc.Module(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ir.Forwardee(m.FuncByName(first)) == nil || m.FuncByName(plan.Merges[1].F1) == nil || ir.Forwardee(m.FuncByName(plan.Merges[1].F1)) != nil {
		t.Fatal("the cancelled apply did not stop after its first merge")
	}
	// A later journaled apply must replay on top of the prefix.
	next, err := sc.Plan(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Apply(ctx, next); err != nil {
		t.Fatalf("apply after the cancelled one: %v", err)
	}
	want, err := sc.Module(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if want == live {
		t.Fatal("the second apply committed nothing")
	}
	hsA.Close()
	srvA.Close()

	_, hsB := newTestDaemon(t, Config{WALDir: dir})
	scB, err := client.New(hsB.URL, "prefix").CreateSession(ctx, client.CreateSession{Name: "prefix", Threshold: 2})
	if err != nil {
		t.Fatalf("recovery create: %v", err)
	}
	if got := scB.CreateInfo().Replayed; got != 2 {
		t.Fatalf("recovery replayed %d records, want 2 (the prefix and the second apply)", got)
	}
	got, err := scB.Module(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("recovered module diverged from the live one (%d vs %d bytes)", len(got), len(want))
	}
}

// createOpCount measures how many write-path operations one session
// create performs, so quarantine tests can arm an injector at the first
// operation of the following request.
func createOpCount(t *testing.T, corpus string) int64 {
	t.Helper()
	inj := fault.NewInjector(fault.OS{}, fault.KindError, 0)
	srv := New(Config{WALDir: t.TempDir(), FS: inj})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	defer srv.Close()
	c := client.New(hs.URL, "probe")
	if _, err := c.CreateSession(context.Background(), chaosOpts("probe", corpus)); err != nil {
		t.Fatalf("probe create: %v", err)
	}
	return inj.Count()
}

// TestServeQuarantine: a journal-append failure (or a panic — the crash
// kind) turns into a 500 that fences the session: mutations 503,
// info still answers and reports it, healthz degrades, SnapshotAll
// refuses the session, and DELETE clears it all.
func TestServeQuarantine(t *testing.T) {
	ctx := context.Background()
	corpus := testCorpus(t, 8)
	atOp := createOpCount(t, corpus) + 1 // the next request's first write

	for _, tc := range []struct {
		name string
		kind fault.Kind
	}{
		{"append-error", fault.KindError},
		{"append-crash-panic", fault.KindCrash},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inj := fault.NewInjector(fault.OS{}, tc.kind, atOp)
			srv, hs := newTestDaemon(t, Config{WALDir: t.TempDir(), FS: inj})
			c := client.New(hs.URL, "quarantine")
			sc, err := c.CreateSession(ctx, chaosOpts("q", corpus))
			if err != nil {
				t.Fatalf("create: %v", err)
			}

			// The armed operation is this update's journal append.
			_, err = sc.Update(ctx, chaosFragDup)
			var se *client.StatusError
			if !errors.As(err, &se) || se.Code != 500 {
				t.Fatalf("faulted update: got %v, want 500", err)
			}
			if !inj.Fired() {
				t.Fatal("injector never fired; the test armed the wrong operation")
			}
			if tc.kind == fault.KindCrash && !strings.Contains(se.Message, "panic") {
				t.Fatalf("crash fault did not surface as a recovered panic: %q", se.Message)
			}

			// Fenced: mutations and snapshots bounce with 503...
			if _, err := sc.Update(ctx, chaosFragMerge); !errors.As(err, &se) || se.Code != 503 {
				t.Fatalf("update on quarantined session: got %v, want 503", err)
			}
			if _, err := sc.Plan(ctx); !errors.As(err, &se) || se.Code != 503 {
				t.Fatalf("plan on quarantined session: got %v, want 503", err)
			}
			if err := sc.Snapshot(ctx); !errors.As(err, &se) || se.Code != 503 {
				t.Fatalf("snapshot on quarantined session: got %v, want 503", err)
			}
			// ...but info still answers, and says why.
			info, err := sc.Info(ctx)
			if err != nil {
				t.Fatalf("info on quarantined session: %v", err)
			}
			if !info.Quarantined {
				t.Fatal("info does not report the quarantine")
			}
			h, err := c.Health(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if h.OK || !h.Degraded || h.Quarantined != 1 {
				t.Fatalf("health %+v, want degraded with 1 quarantined", h)
			}
			st, err := c.Stats(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if st.Quarantined != 1 {
				t.Fatalf("stats quarantined = %d, want 1", st.Quarantined)
			}
			if tc.kind == fault.KindCrash && st.Panics != 1 {
				t.Fatalf("stats panics = %d, want 1 after a crash fault", st.Panics)
			}
			if err := srv.SnapshotAll(); err == nil {
				t.Fatal("SnapshotAll accepted a quarantined session")
			} else if !strings.Contains(err.Error(), `"q"`) {
				t.Fatalf("SnapshotAll error does not name the session: %v", err)
			}

			// DELETE clears the quarantine and health recovers.
			if err := sc.Close(ctx); err != nil {
				t.Fatalf("delete of quarantined session: %v", err)
			}
			h, err = c.Health(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if !h.OK || h.Degraded {
				t.Fatalf("health %+v after clearing the quarantine, want OK", h)
			}
		})
	}
}

// TestServeWALOffIdentical: with journaling disabled the daemon must be
// byte-identical to the pre-WAL pipeline — same drained module as a
// journaled daemon over the same input, and nothing written anywhere.
func TestServeWALOffIdentical(t *testing.T) {
	ctx := context.Background()
	corpus := testCorpus(t, 32)
	drained := func(cfg Config, name string) string {
		_, hs := newTestDaemon(t, cfg)
		c := client.New(hs.URL, "waloff")
		sc, err := c.CreateSession(ctx, client.CreateSession{
			Name: name, Module: corpus, Threshold: 2,
		})
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		drainDaemon(t, ctx, sc)
		text, err := sc.Module(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return text
	}
	walDir := t.TempDir()
	off := drained(Config{}, "off")
	on := drained(Config{WALDir: walDir}, "on")
	if off != on {
		t.Fatalf("journaling changed the pipeline output: %d vs %d bytes", len(off), len(on))
	}
	ents, err := os.ReadDir(walDir)
	if err != nil || len(ents) == 0 {
		t.Fatalf("journaled daemon left no trace in its WAL dir (err=%v)", err)
	}
}

// TestSnapshotAllJoinsErrors: every failing session is reported, not
// just the first, and the healthy ones still persist.
func TestSnapshotAllJoinsErrors(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	srv, hs := newTestDaemon(t, Config{SnapshotDir: dir})
	c := client.New(hs.URL, "joins")
	corpus := testCorpus(t, 8)
	for _, name := range []string{"bad1", "bad2", "good"} {
		if _, err := c.CreateSession(ctx, client.CreateSession{Name: name, Module: corpus}); err != nil {
			t.Fatalf("create %s: %v", name, err)
		}
	}
	srv.sessions["bad1"].quarantined.Store(true)
	srv.sessions["bad2"].quarantined.Store(true)

	err := srv.SnapshotAll()
	if err == nil {
		t.Fatal("SnapshotAll reported success with two quarantined sessions")
	}
	for _, name := range []string{"bad1", "bad2"} {
		if !strings.Contains(err.Error(), `"`+name+`"`) {
			t.Fatalf("aggregate error does not mention %s: %v", name, err)
		}
	}
	if strings.Contains(err.Error(), `"good"`) {
		t.Fatalf("aggregate error blames the healthy session: %v", err)
	}
	if _, err := os.Stat(srv.modulePath("good")); err != nil {
		t.Fatalf("healthy session did not persist: %v", err)
	}
	if _, err := os.Stat(srv.modulePath("bad1")); err == nil {
		t.Fatal("quarantined session was persisted over its last good state")
	}
}

// TestWALBenchSmoke: the -wal-bench harness end to end on a small
// configuration — three load runs plus the recovery timing, with the
// recovered-module equality check inside measureRecovery.
func TestWALBenchSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("three load runs; skipped under -short")
	}
	rep, err := RunWALBench(context.Background(), LoadConfig{
		Clients: 4, Sessions: 1, Funcs: 48, Seed: 7, MaxRounds: 3,
	})
	if err != nil {
		t.Fatalf("wal bench: %v", err)
	}
	for name, lr := range map[string]*LoadReport{"off": rep.Off, "commit": rep.Commit, "batch": rep.Batch} {
		if lr == nil || lr.Ops == 0 || lr.Errors != 0 {
			t.Fatalf("%s run: %+v", name, lr)
		}
	}
	if rep.RecoveryMs <= 0 || rep.ColdMs <= 0 {
		t.Fatalf("missing recovery timing: cold=%v recovery=%v", rep.ColdMs, rep.RecoveryMs)
	}
	if rep.Replayed < 1 {
		t.Fatalf("recovery replayed %d records, want >= 1", rep.Replayed)
	}
}
