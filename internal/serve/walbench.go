// The WAL overhead and recovery benchmark: the load harness run three
// times — journaling off, fsync-per-commit, fsync-on-rotation — plus a
// crash-recovery timing, so BENCH_wal.json answers the two durability
// questions that matter: what does the journal cost per operation, and
// how long until a restarted daemon serves again. cmd/fmerged
// -wal-bench runs it; TestWALBenchSmoke runs a small configuration.
package serve

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"repro/client"
)

// WALBenchReport is the -wal-bench result, written as BENCH_wal.json.
type WALBenchReport struct {
	// Off / Commit / Batch are the same load configuration with
	// journaling disabled, fsync-per-record, and fsync-on-rotation.
	Off    *LoadReport `json:"off"`
	Commit *LoadReport `json:"commit"`
	Batch  *LoadReport `json:"batch"`
	// CommitOverheadPct / BatchOverheadPct are the throughput cost of
	// each sync mode relative to Off, in percent (positive = slower).
	CommitOverheadPct float64 `json:"commit_overhead_pct"`
	BatchOverheadPct  float64 `json:"batch_overhead_pct"`
	// ColdMs is the time to create a session from inline module text;
	// RecoveryMs the time to recover the same session after a crash —
	// load persisted module, replay Replayed journal records,
	// re-persist. The difference is what the replay costs.
	ColdMs     float64 `json:"cold_ms"`
	RecoveryMs float64 `json:"recovery_ms"`
	Replayed   int     `json:"replayed"`
}

// RunWALBench measures journaling overhead (cfg with WALDir forced
// off/commit/batch) and crash-recovery time for cfg's corpus.
func RunWALBench(ctx context.Context, cfg LoadConfig) (*WALBenchReport, error) {
	cfg = cfg.withDefaults()
	rep := &WALBenchReport{}
	for _, run := range []struct {
		name string
		out  **LoadReport
		sync string
	}{
		{"off", &rep.Off, ""},
		{"commit", &rep.Commit, "commit"},
		{"batch", &rep.Batch, "batch"},
	} {
		c := cfg
		if run.name == "off" {
			c.WALDir = ""
		} else {
			dir, err := os.MkdirTemp("", "walbench-"+run.name)
			if err != nil {
				return nil, err
			}
			defer os.RemoveAll(dir)
			c.WALDir = dir
			c.WALSync = run.sync
		}
		lr, err := RunLoad(ctx, c, false)
		if err != nil {
			return nil, fmt.Errorf("wal bench %s: %w", run.name, err)
		}
		*run.out = lr
	}
	rep.CommitOverheadPct = overheadPct(rep.Off, rep.Commit)
	rep.BatchOverheadPct = overheadPct(rep.Off, rep.Batch)

	cold, recov, replayed, err := measureRecovery(ctx, cfg)
	if err != nil {
		return nil, err
	}
	rep.ColdMs = cold
	rep.RecoveryMs = recov
	rep.Replayed = replayed
	return rep, nil
}

func overheadPct(off, on *LoadReport) float64 {
	if off == nil || on == nil || off.ThroughputOps <= 0 || on.ThroughputOps <= 0 {
		return 0
	}
	return (off.ThroughputOps/on.ThroughputOps - 1) * 100
}

// walBenchDaemon stands up an in-process daemon journaling to dir and
// returns its base URL and a shutdown func.
func walBenchDaemon(dir string) (string, func(), error) {
	srv := New(Config{WALDir: dir})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	stop := func() {
		hs.Close()
		srv.Close()
	}
	return "http://" + ln.Addr().String(), stop, nil
}

// measureRecovery times a crash-recovery cycle: daemon A creates a
// session and commits an optimize (journaled, never snapshotted), then
// goes away; daemon B over the same directory recreates the session by
// name, which replays the journal. The recovered module must equal the
// one daemon A served — the same invariant the chaos suite asserts
// under injected faults.
func measureRecovery(ctx context.Context, cfg LoadConfig) (coldMs, recoveryMs float64, replayed int, err error) {
	dir, err := os.MkdirTemp("", "walbench-recovery")
	if err != nil {
		return 0, 0, 0, err
	}
	defer os.RemoveAll(dir)
	corpus := loadCorpus(cfg.Funcs, cfg.Seed)

	base, stop, err := walBenchDaemon(dir)
	if err != nil {
		return 0, 0, 0, err
	}
	admin := client.New(base, "walbench")
	create := client.CreateSession{Name: "rec", Module: corpus, DupFold: true}
	t0 := time.Now()
	sc, err := admin.CreateSession(ctx, create)
	if err != nil {
		stop()
		return 0, 0, 0, fmt.Errorf("recovery bench create: %w", err)
	}
	coldMs = float64(time.Since(t0)) / float64(time.Millisecond)
	if _, err := sc.Optimize(ctx); err != nil {
		stop()
		return 0, 0, 0, fmt.Errorf("recovery bench optimize: %w", err)
	}
	want, err := sc.Module(ctx)
	if err != nil {
		stop()
		return 0, 0, 0, err
	}
	// Daemon A disappears without snapshotting: the optimize lives only
	// in the journal, exactly the state a crash leaves behind.
	stop()

	base, stop, err = walBenchDaemon(dir)
	if err != nil {
		return 0, 0, 0, err
	}
	defer stop()
	admin = client.New(base, "walbench")
	t0 = time.Now()
	sc, err = admin.CreateSession(ctx, client.CreateSession{Name: "rec", DupFold: true})
	if err != nil {
		return 0, 0, 0, fmt.Errorf("recovery bench recover: %w", err)
	}
	recoveryMs = float64(time.Since(t0)) / float64(time.Millisecond)
	replayed = sc.CreateInfo().Replayed
	got, err := sc.Module(ctx)
	if err != nil {
		return 0, 0, 0, err
	}
	if got != want {
		return 0, 0, 0, fmt.Errorf("recovered module diverged from the pre-crash one (%d vs %d bytes)", len(got), len(want))
	}
	return coldMs, recoveryMs, replayed, nil
}
