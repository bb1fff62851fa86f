package serve

import (
	"context"
	"errors"
	"testing"

	"repro/client"
)

const batchFragDup = `
define i32 @batch_a(i32 %x) {
entry:
  %r = add i32 %x, 29
  ret i32 %r
}
define i32 @batch_b(i32 %x) {
entry:
  %r = add i32 %x, 29
  ret i32 %r
}
`

const batchFragMore = `
define i32 @batch_c(i32 %x) {
entry:
  %r = add i32 %x, 29
  ret i32 %r
}
`

// TestServeBatch: the batch endpoint splices, removes and re-indexes in
// one call; incoherent batches and unknown names map to 400; and a
// journaled batch replays as one record on recovery.
func TestServeBatch(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	corpus := testCorpus(t, 16)

	srvA, hsA := newTestDaemon(t, Config{WALDir: dir})
	c := client.New(hsA.URL, "batch")
	sc, err := c.CreateSession(ctx, chaosOpts("batch", corpus))
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	before, err := sc.Info(ctx)
	if err != nil {
		t.Fatal(err)
	}

	// Splice-only batch.
	out, err := sc.Batch(ctx, batchFragDup, nil)
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	if len(out.Funcs) != 2 || out.Funcs[0] != "batch_a" || out.Funcs[1] != "batch_b" || out.Removed != 0 {
		t.Fatalf("batch returned %+v", out)
	}
	after, err := sc.Info(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if after.Funcs != before.Funcs+2 {
		t.Fatalf("funcs %d after batching 2 into %d", after.Funcs, before.Funcs)
	}

	// Mixed batch: one more clone in, one original out.
	out, err = sc.Batch(ctx, batchFragMore, []string{"batch_a"})
	if err != nil {
		t.Fatalf("mixed batch: %v", err)
	}
	if len(out.Funcs) != 1 || out.Funcs[0] != "batch_c" || out.Removed != 1 {
		t.Fatalf("mixed batch returned %+v", out)
	}

	// Incoherent batch: batch_c both redefined and removed.
	var se *client.StatusError
	_, err = sc.Batch(ctx, batchFragMore, []string{"batch_c"})
	if !errors.As(err, &se) || se.Code != 400 {
		t.Fatalf("conflicting batch: got %v, want 400", err)
	}
	// Unknown removal name.
	_, err = sc.Batch(ctx, "", []string{"no_such_function"})
	if !errors.As(err, &se) || se.Code != 400 {
		t.Fatalf("unknown removal: got %v, want 400", err)
	}

	// batch_b and batch_c are identical and candidates; batch_a was
	// removed from candidacy. The fold proves the batch re-indexed.
	rep, err := sc.Optimize(ctx)
	if err != nil {
		t.Fatalf("optimize: %v", err)
	}
	if rep.Folds == 0 {
		t.Fatal("batched duplicates were not folded")
	}
	want, err := captureState(ctx, sc)
	if err != nil {
		t.Fatal(err)
	}

	// Crash-recover from the journal alone: two batch records and the
	// optimize replay; the failed batches journaled nothing.
	hsA.Close()
	srvA.Close()
	_, hsB := newTestDaemon(t, Config{WALDir: dir})
	cB := client.New(hsB.URL, "batch")
	scB, err := cB.CreateSession(ctx, chaosOpts("batch", ""))
	if err != nil {
		t.Fatalf("recovery create: %v", err)
	}
	if got := scB.CreateInfo().Replayed; got != 3 {
		t.Fatalf("recovery replayed %d records, want 3", got)
	}
	got, err := captureState(ctx, scB)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("recovered state diverged: module %d bytes (want %d)", len(got.module), len(want.module))
	}
}

// TestServeDeltaQuota: update and batch run the function-quota precheck
// before they splice, so a rejected delta leaves the module as it was;
// remove never runs it, so a client at or past its quota can still
// shrink.
func TestServeDeltaQuota(t *testing.T) {
	ctx := context.Background()
	srv, hs := newTestDaemon(t, Config{MaxClientFuncs: 17})
	c := client.New(hs.URL, "quota")
	sc, err := c.CreateSession(ctx, client.CreateSession{Name: "q", Module: testCorpus(t, 16)})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	before, err := sc.Module(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Update(ctx, batchFragDup); !client.IsThrottled(err) {
		t.Fatalf("update of 2 defines past the quota: got %v, want 429", err)
	}
	if _, err := sc.Batch(ctx, batchFragDup, nil); !client.IsThrottled(err) {
		t.Fatalf("batch of 2 defines past the quota: got %v, want 429", err)
	}
	if after, err := sc.Module(ctx); err != nil || after != before {
		t.Fatalf("a rejected delta changed the module (err %v)", err)
	}
	if _, err := sc.Update(ctx, batchFragMore); err != nil {
		t.Fatalf("update within the quota: %v", err)
	}

	// Past the quota (only a bug or a lowered limit gets a client here),
	// update and batch are refused even when they add nothing; remove is
	// not.
	srv.mu.Lock()
	srv.clients["quota"].funcs++
	srv.mu.Unlock()
	if _, err := sc.Update(ctx, ""); !client.IsThrottled(err) {
		t.Fatalf("empty update past the quota: got %v, want 429", err)
	}
	if _, err := sc.Batch(ctx, "", []string{"batch_c"}); !client.IsThrottled(err) {
		t.Fatalf("removal-only batch past the quota: got %v, want 429", err)
	}
	if err := sc.Remove(ctx, "batch_c"); err != nil {
		t.Fatalf("remove past the quota: %v", err)
	}
}
