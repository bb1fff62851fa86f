package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"testing"

	"repro/client"
	"repro/internal/fault"
)

// The chaos harness drives a fixed mutation script against a journaled
// daemon whose filesystem kills it at the Nth write-path operation,
// then recovers the session on a clean daemon over the same directory
// and demands the recovered state be bit-for-bit one of exactly two
// reference states: the one after the last acknowledged step, or — when
// the kill landed between a record becoming durable and its
// acknowledgment — the one a single step later. Nothing else is
// acceptable: an acked mutation may never be lost, an unacked one may
// never half-apply.

// chaosOpts is the session configuration every chaos daemon uses.
func chaosOpts(name, module string) client.CreateSession {
	return client.CreateSession{Name: name, Module: module, DupFold: true}
}

const chaosFragDup = `
define i32 @chaos_a1(i32 %x) {
entry:
  %r = add i32 %x, 17
  ret i32 %r
}
define i32 @chaos_a2(i32 %x) {
entry:
  %r = add i32 %x, 17
  ret i32 %r
}
`

const chaosFragMerge = `
define i32 @chaos_b1(i32 %x, i32 %y) {
entry:
  %s = add i32 %x, %y
  %r = mul i32 %s, 3
  ret i32 %r
}
define i32 @chaos_b2(i32 %x, i32 %y) {
entry:
  %s = add i32 %x, %y
  %r = mul i32 %s, 5
  ret i32 %r
}
define i64 @chaos_lone(i64 %p) {
entry:
  %q = xor i64 %p, 255
  ret i64 %q
}
`

// chaosSteps returns the script: every journaled op kind — update,
// optimize, apply, remove — appears at least once.
func chaosSteps(ctx context.Context, sc *client.SessionClient) []func() error {
	return []func() error{
		func() error { _, err := sc.Update(ctx, chaosFragDup); return err },
		func() error { _, err := sc.Optimize(ctx); return err },
		func() error { _, err := sc.Update(ctx, chaosFragMerge); return err },
		func() error {
			plan, err := sc.Plan(ctx)
			if err != nil {
				return err
			}
			_, err = sc.Apply(ctx, plan)
			return err
		},
		func() error { return sc.Remove(ctx, "chaos_lone") },
	}
}

// chaosState is one reference point: the module text and the JSON of
// the next plan the daemon would produce from it.
type chaosState struct {
	module string
	plan   string
}

func captureState(ctx context.Context, sc *client.SessionClient) (chaosState, error) {
	module, err := sc.Module(ctx)
	if err != nil {
		return chaosState{}, err
	}
	plan, err := sc.Plan(ctx)
	if err != nil {
		return chaosState{}, err
	}
	data, err := json.Marshal(plan)
	if err != nil {
		return chaosState{}, err
	}
	// run_id is a process-global plan counter — an audit tag, not state.
	// Zero it so the bit-for-bit comparison is over the plan's content.
	var scrub map[string]any
	if err := json.Unmarshal(data, &scrub); err != nil {
		return chaosState{}, err
	}
	delete(scrub, "run_id")
	data, err = json.Marshal(scrub)
	if err != nil {
		return chaosState{}, err
	}
	return chaosState{module: module, plan: string(data)}, nil
}

// chaosReference runs the script on a never-faulted daemon and captures
// the state after the create and after each step.
func chaosReference(t *testing.T, ctx context.Context, corpus string) []chaosState {
	t.Helper()
	_, hs := newTestDaemon(t, Config{WALDir: t.TempDir()})
	c := client.New(hs.URL, "chaos-ref")
	sc, err := c.CreateSession(ctx, chaosOpts("chaos", corpus))
	if err != nil {
		t.Fatalf("reference create: %v", err)
	}
	states := make([]chaosState, 0, 6)
	st, err := captureState(ctx, sc)
	if err != nil {
		t.Fatal(err)
	}
	states = append(states, st)
	for i, step := range chaosSteps(ctx, sc) {
		if err := step(); err != nil {
			t.Fatalf("reference step %d: %v", i, err)
		}
		st, err := captureState(ctx, sc)
		if err != nil {
			t.Fatalf("reference capture after step %d: %v", i, err)
		}
		states = append(states, st)
	}
	return states
}

// runChaosScript drives the script against a possibly-faulted daemon.
// It returns the number of acknowledged steps, or -1 when the create
// itself failed. The script stops at the first error — a dead client
// would not keep sending.
func runChaosScript(ctx context.Context, base, corpus string) int {
	c := client.New(base, "chaos")
	sc, err := c.CreateSession(ctx, chaosOpts("chaos", corpus))
	if err != nil {
		return -1
	}
	acked := 0
	for _, step := range chaosSteps(ctx, sc) {
		if step() != nil {
			break
		}
		acked++
	}
	return acked
}

// recoverAndCompare recreates the session on a clean daemon over dir
// and checks the recovered module and next plan against the two
// admissible reference states.
func recoverAndCompare(t *testing.T, ctx context.Context, dir string, acked int, states []chaosState) {
	t.Helper()
	_, hs := newTestDaemon(t, Config{WALDir: dir})
	c := client.New(hs.URL, "chaos-recover")
	sc, err := c.CreateSession(ctx, chaosOpts("chaos", "")) // restore by name
	if acked < 0 {
		// The create was never acknowledged: the daemon owes nothing. It
		// may have persisted the base module before dying (then recovery
		// serves state 0) or not (then the name is unknown).
		var se *client.StatusError
		if err != nil {
			if !errors.As(err, &se) || se.Code != 404 {
				t.Fatalf("recovery of unacked create: got %v, want success or 404", err)
			}
			return
		}
		acked = 0
	} else if err != nil {
		t.Fatalf("recovery failed for a session with %d acked steps: %v", acked, err)
	}
	got, err := captureState(ctx, sc)
	if err != nil {
		t.Fatalf("capturing recovered state: %v", err)
	}
	if got == states[acked] {
		return
	}
	// The kill may have landed after the journal record hit the disk but
	// before the acknowledgment: the one-step-ahead state is the only
	// other legal outcome.
	if acked+1 < len(states) && got == states[acked+1] {
		return
	}
	t.Fatalf("recovered state after %d acked steps matches neither reference state %d nor %d\n"+
		"module %d bytes (want %d), plan %q (want %q)",
		acked, acked, acked+1, len(got.module), len(states[acked].module), got.plan, states[acked].plan)
}

// chaosSweep runs the script once per injection point with the given
// fault kind and verifies recovery after each.
func chaosSweep(t *testing.T, kind fault.Kind) {
	ctx := context.Background()
	corpus := testCorpus(t, 12)
	states := chaosReference(t, ctx, corpus)

	// Counting run: a never-firing injector totals the write-path
	// operations one clean script execution performs.
	counter := fault.NewInjector(fault.OS{}, kind, 0)
	srv := New(Config{WALDir: t.TempDir(), FS: counter})
	hs := httptest.NewServer(srv.Handler())
	if acked := runChaosScript(ctx, hs.URL, corpus); acked != len(states)-1 {
		t.Fatalf("counting run acked %d steps, want %d", acked, len(states)-1)
	}
	// Count before closing: Close syncs the journal, an op the abandoned
	// faulted servers never perform.
	total := counter.Count()
	hs.Close()
	srv.Close()
	if total < 15 {
		t.Fatalf("only %d write-path ops counted; the script is not exercising the durability layer", total)
	}
	t.Logf("sweeping %d injection points", total)

	for n := int64(1); n <= total; n++ {
		dir := t.TempDir()
		inj := fault.NewInjector(fault.OS{}, kind, n)
		srv := New(Config{WALDir: dir, FS: inj})
		hs := httptest.NewServer(srv.Handler())
		acked := runChaosScript(ctx, hs.URL, corpus)
		hs.Close()
		// The faulted server is abandoned, not closed: after a KindCrash
		// its filesystem is dead and the "process" no longer exists.
		if !inj.Fired() {
			t.Fatalf("injection point %d/%d never fired (script acked %d steps)", n, total, acked)
		}
		recoverAndCompare(t, ctx, dir, acked, states)
	}
}

// TestChaosCrashSweep is the acceptance gate: kill the daemon at every
// write-path operation of the script; every recovery must be exact.
func TestChaosCrashSweep(t *testing.T) {
	chaosSweep(t, fault.KindCrash)
}

// TestChaosErrorSweep: the same sweep with non-fatal injected I/O
// errors — the daemon survives, quarantines, and recovery from the
// journal still lands on a reference state.
func TestChaosErrorSweep(t *testing.T) {
	chaosSweep(t, fault.KindError)
}

// TestChaosShortWriteSweep: torn writes without a crash.
func TestChaosShortWriteSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("two sweeps already run in -short mode")
	}
	chaosSweep(t, fault.KindShortWrite)
}
