package serve

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/client"
	"repro/internal/irtext"
	"repro/internal/wal"
)

// nestedFunc defines @name taking a pointer to a struct type nested
// depth levels deep.
func nestedFunc(name string, depth int) string {
	ty := strings.Repeat("{", depth) + "i32" + strings.Repeat("}", depth) + "*"
	return "define void @" + name + "(" + ty + " %p) {\nentry:\n  ret void\n}\n"
}

// TestServeDeepTypes: a type nested past irtext.MaxTypeDepth is a 400
// at session creation and at update — never a quarantine, never the
// end of the process — while one at the cap is served.
func TestServeDeepTypes(t *testing.T) {
	ctx := context.Background()
	_, hs := newTestDaemon(t, Config{WALDir: t.TempDir()})
	c := client.New(hs.URL, "deep")
	corpus := testCorpus(t, 8)
	var se *client.StatusError

	_, err := c.CreateSession(ctx, chaosOpts("past", corpus+nestedFunc("deep", irtext.MaxTypeDepth+1)))
	if !errors.As(err, &se) || se.Code != 400 {
		t.Fatalf("create with a type one level past the cap: got %v, want 400", err)
	}
	sc, err := c.CreateSession(ctx, chaosOpts("at", corpus+nestedFunc("deep", irtext.MaxTypeDepth)))
	if err != nil {
		t.Fatalf("create with a type at the cap: %v", err)
	}
	before, err := sc.Module(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Update(ctx, nestedFunc("deeper", irtext.MaxTypeDepth+1)); !errors.As(err, &se) || se.Code != 400 {
		t.Fatalf("update with a type one level past the cap: got %v, want 400", err)
	}
	if after, err := sc.Module(ctx); err != nil || after != before {
		t.Fatalf("a refused update changed the module (err %v)", err)
	}
	if info, err := sc.Info(ctx); err != nil || info.Quarantined {
		t.Fatalf("session after a refused update: %+v, %v", info, err)
	}
	if _, err := sc.Update(ctx, nestedFunc("deeper", irtext.MaxTypeDepth)); err != nil {
		t.Fatalf("update with a type at the cap: %v", err)
	}
	if _, err := sc.Optimize(ctx); err != nil {
		t.Fatalf("optimize: %v", err)
	}
	h, err := c.Health(ctx)
	if err != nil || !h.OK || h.Quarantined != 0 {
		t.Fatalf("health %+v (err %v), want OK with nothing quarantined", h, err)
	}
}

// batchFragRedefine gives @batch_a (batchFragDup) a different body.
const batchFragRedefine = `
define i32 @batch_a(i32 %x) {
entry:
  %r = mul i32 %x, 31
  ret i32 %r
}
`

// TestServeRejectedDeltaLeavesModule: a delta the session refuses — a
// batch that also removes a name it redefines, a removal of an unknown
// name, a cancelled request — answers 4xx or fails, grafts nothing and
// journals nothing: the live module stays as it was, and a daemon
// recovered from the journal holds the same module as the live one.
func TestServeRejectedDeltaLeavesModule(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	srvA, hsA := newTestDaemon(t, Config{WALDir: dir})
	c := client.New(hsA.URL, "reject")
	sc, err := c.CreateSession(ctx, chaosOpts("reject", testCorpus(t, 16)))
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := sc.Batch(ctx, batchFragDup, nil); err != nil {
		t.Fatalf("batch: %v", err)
	}
	want, err := sc.Module(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var se *client.StatusError
	for _, remove := range [][]string{{"no_such_function"}, {"batch_a"}} {
		if _, err := sc.Batch(ctx, batchFragRedefine, remove); !errors.As(err, &se) || se.Code != 400 {
			t.Fatalf("batch redefining @batch_a and removing %v: got %v, want 400", remove, err)
		}
		if got, err := sc.Module(ctx); err != nil || got != want {
			t.Fatalf("batch removing %v was refused but changed the module (err %v)", remove, err)
		}
	}
	// A request cancelled before the session marks it: applyDelta is
	// driven directly, since over HTTP the cancellation races the
	// handler.
	sv := srvA.sessions["reject"]
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	sv.mu.Lock()
	_, refused, err := applyDelta(cancelled, sv, wal.Record{Op: wal.OpUpdate, Fragment: batchFragRedefine})
	sv.mu.Unlock()
	if !errors.Is(refused, context.Canceled) || err != nil {
		t.Fatalf("cancelled update: refused %v, err %v; want context.Canceled", refused, err)
	}
	if got, err := sc.Module(ctx); err != nil || got != want {
		t.Fatalf("a cancelled update changed the module (err %v)", err)
	}
	if info, err := sc.Info(ctx); err != nil || info.Quarantined {
		t.Fatalf("session after refused deltas: %+v, %v", info, err)
	}

	hsA.Close()
	srvA.Close()
	_, hsB := newTestDaemon(t, Config{WALDir: dir})
	scB, err := client.New(hsB.URL, "reject").CreateSession(ctx, chaosOpts("reject", ""))
	if err != nil {
		t.Fatalf("recovery create: %v", err)
	}
	if got := scB.CreateInfo().Replayed; got != 1 {
		t.Fatalf("recovery replayed %d records, want the one batch that took", got)
	}
	if got, err := scB.Module(ctx); err != nil || got != want {
		t.Fatalf("the recovered module differs from the live one (err %v)", err)
	}
}
