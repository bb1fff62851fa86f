package serve

import (
	"context"
	"errors"
	"net/http/httptest"
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

// illTyped are fragments ir.VerifyModule rejects, one per type rule the
// parser enforces: a select with differing arms, a store of a value
// that is not the pointee, a ret of the wrong type, a direct call or
// invoke with the wrong argument count, one whose argument type
// contradicts the declaration an earlier call site synthesized, and a
// global used as an operand of another type.
var illTyped = []struct{ name, frag string }{
	{"select", "define i32 @ill_select(i1 %c) {\nentry:\n  %x = select i1 %c, i32 1, i64 2\n  ret i32 %x\n}\n"},
	{"store", "define void @ill_store(i64* %p) {\nentry:\n  store i32 1, i64* %p\n  ret void\n}\n"},
	{"ret", "define i32 @ill_ret(i64 %a) {\nentry:\n  ret i64 %a\n}\n"},
	{"arity", "declare void @ill_callee(i32)\ndefine void @ill_arity() {\nentry:\n" +
		"  invoke void @ill_callee(i32 1, i32 2) to label %ok unwind label %ok\nok:\n  ret void\n}\n"},
	{"argtype", "define void @ill_argtype() {\nentry:\n  call void @ill_ext(i32 1)\n" +
		"  call void @ill_ext(i64 1)\n  ret void\n}\n"},
	{"global", "@ill_g = global i32 7\ndefine i32 @ill_global(i32 %x) {\nentry:\n" +
		"  %y = add i32 %x, @ill_g\n  ret i32 %y\n}\n"},
	{"call of a global", "@ill_cg = global i32 7\ndefine void @ill_callglobal() {\nentry:\n" +
		"  call void @ill_cg()\n  ret void\n}\n"},
}

// TestServeIllTypedIR: a module or fragment the verifier would reject
// is a 400 at session creation and at update, and a refused update
// leaves the module as it was with nothing quarantined.
func TestServeIllTypedIR(t *testing.T) {
	ctx := context.Background()
	_, hs := newTestDaemon(t, Config{WALDir: t.TempDir()})
	c := client.New(hs.URL, "ill")
	corpus := testCorpus(t, 8)
	sc, err := c.CreateSession(ctx, chaosOpts("ill", corpus))
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	before, err := sc.Module(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var se *client.StatusError
	for _, tc := range illTyped {
		if _, err := c.CreateSession(ctx, chaosOpts("ill-"+tc.name, corpus+tc.frag)); !errors.As(err, &se) || se.Code != 400 {
			t.Errorf("%s: create got %v, want 400", tc.name, err)
		}
		if _, err := sc.Update(ctx, tc.frag); !errors.As(err, &se) || se.Code != 400 {
			t.Errorf("%s: update got %v, want 400", tc.name, err)
		}
		if after, err := sc.Module(ctx); err != nil || after != before {
			t.Fatalf("%s: a refused update changed the module (err %v)", tc.name, err)
		}
	}
	if info, err := sc.Info(ctx); err != nil || info.Quarantined {
		t.Fatalf("session after refused updates: %+v, %v", info, err)
	}
	if h, err := c.Health(ctx); err != nil || !h.OK || h.Quarantined != 0 {
		t.Fatalf("health %+v (err %v), want OK with nothing quarantined", h, err)
	}
}

// FuzzServeUpdate posts arbitrary fragments to /v1/sessions/{name}/update
// on a session seeded with a small corpus, fresh for each input: the
// answer is 200 or 4xx, never 5xx; the session is never quarantined;
// and a 4xx leaves the module text byte-identical.
func FuzzServeUpdate(f *testing.F) {
	for _, tc := range illTyped {
		f.Add(tc.frag)
	}
	f.Add(chaosFragDup)
	f.Add(batchFragRedefine)
	f.Add(nestedFunc("deep", irtext.MaxTypeDepth+1))
	ctx := context.Background()
	srv := New(Config{})
	hs := httptest.NewServer(srv.Handler())
	defer func() {
		hs.Close()
		srv.Close()
	}()
	c := client.New(hs.URL, "fuzz")
	corpus := testCorpus(f, 6)
	f.Fuzz(func(t *testing.T, frag string) {
		sc, err := c.CreateSession(ctx, chaosOpts("fuzz", corpus))
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		defer sc.Close(ctx)
		before, err := sc.Module(ctx)
		if err != nil {
			t.Fatal(err)
		}
		_, err = sc.Update(ctx, frag)
		var se *client.StatusError
		switch {
		case err == nil:
		case !errors.As(err, &se):
			t.Fatalf("update: %v", err)
		case se.Code/100 != 4:
			t.Fatalf("update answered %d: %s", se.Code, se.Message)
		default:
			if after, err := sc.Module(ctx); err != nil || after != before {
				t.Fatalf("a %d update changed the module (err %v)", se.Code, err)
			}
		}
		if info, err := sc.Info(ctx); err != nil || info.Quarantined {
			t.Fatalf("session after update: %+v, %v", info, err)
		}
	})
}
