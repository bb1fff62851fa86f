// Command fmerged serves function merging over HTTP: named merge
// sessions, streamed module deltas and optimistic
// plan/apply commits, with snapshot-based warm restarts and per-session
// write-ahead journaling for crash recovery.
//
// Usage:
//
//	fmerged [-addr :7433] [-snapshot-dir DIR]
//	        [-wal-dir DIR] [-wal-sync commit|batch]
//	        [-max-sessions N] [-max-inflight N]
//	        [-client-inflight N] [-client-funcs N] [-max-body BYTES]
//
//	fmerged -loadgen [-clients N] [-sessions N] [-funcs N] [-seed N]
//	        [-o BENCH_serve.json]
//
//	fmerged -wal-bench [-clients N] [-sessions N] [-funcs N] [-seed N]
//	        [-o BENCH_wal.json]
//
// Serve mode mounts the /v1 surface (see internal/serve and the
// repro/client package) and runs until SIGINT/SIGTERM; on shutdown the
// listener drains, then every live session's module text and memo
// snapshot are persisted under -snapshot-dir (when set), so the next
// start warm-restarts them. With -wal-dir set, every committed mutation
// is additionally journaled before its client is acknowledged; a daemon
// killed without ceremony replays the journal tail when a client
// recreates a session by name, so no acknowledged mutation is lost
// (with -wal-sync commit; batch trades the unsynced tail for
// throughput).
//
// Loadgen mode stands up an in-process daemon and drives it with
// -clients concurrent plan/apply clients over the deterministic
// synthetic suite, then writes the throughput/latency report to -o as
// JSON. WAL-bench mode runs the same load three times — journaling off,
// fsync-per-commit, fsync-on-rotation — plus a crash-recovery timing,
// and writes BENCH_wal.json.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/serve"
	"repro/internal/wal"
)

func main() {
	var (
		addr           = flag.String("addr", ":7433", "listen address")
		snapshotDir    = flag.String("snapshot-dir", "", "directory for session snapshots (empty disables persistence; defaults to -wal-dir when journaling)")
		walDir         = flag.String("wal-dir", "", "directory for per-session write-ahead journals (empty disables journaling)")
		walSync        = flag.String("wal-sync", "commit", "journal fsync policy: commit (fsync per record) or batch (fsync on rotation/close)")
		maxSessions    = flag.Int("max-sessions", 64, "live session cap")
		maxInflight    = flag.Int("max-inflight", 256, "global in-flight request cap (excess gets 503)")
		clientInflight = flag.Int("client-inflight", 32, "per-client in-flight cap (excess gets 429)")
		clientFuncs    = flag.Int("client-funcs", 100_000, "per-client indexed-function quota (excess gets 429)")
		maxBody        = flag.Int64("max-body", 64<<20, "request body cap in bytes")

		loadgen  = flag.Bool("loadgen", false, "run the load benchmark against an in-process daemon and exit")
		walBench = flag.Bool("wal-bench", false, "run the WAL overhead/recovery benchmark and exit")
		clients  = flag.Int("clients", 128, "loadgen: concurrent clients")
		sessions = flag.Int("sessions", 4, "loadgen: daemon sessions the clients spread over")
		funcs    = flag.Int("funcs", 2000, "loadgen: synthetic corpus size per session")
		seed     = flag.Int64("seed", 42, "loadgen: corpus generation seed")
		rounds   = flag.Int("rounds", 0, "loadgen: plan/apply rounds per client (0 = drive every session to its merge fixpoint)")
		out      = flag.String("o", "", "benchmark report output path (\"-\" for stdout; default BENCH_serve.json / BENCH_wal.json)")
	)
	flag.Parse()

	mode, err := wal.ParseSyncMode(*walSync)
	if err != nil {
		log.Fatalf("fmerged: %v", err)
	}

	loadCfg := serve.LoadConfig{
		Clients:   *clients,
		Sessions:  *sessions,
		Funcs:     *funcs,
		Seed:      *seed,
		MaxRounds: *rounds,
		WALDir:    *walDir,
		WALSync:   *walSync,
	}
	switch {
	case *loadgen:
		if err := runLoadgen(loadCfg, pickOut(*out, "BENCH_serve.json")); err != nil {
			log.Fatalf("fmerged: loadgen: %v", err)
		}
		return
	case *walBench:
		if err := runWALBench(loadCfg, pickOut(*out, "BENCH_wal.json")); err != nil {
			log.Fatalf("fmerged: wal-bench: %v", err)
		}
		return
	}

	srv := serve.New(serve.Config{
		MaxSessions:       *maxSessions,
		MaxInflight:       *maxInflight,
		MaxClientInflight: *clientInflight,
		MaxClientFuncs:    *clientFuncs,
		MaxBodyBytes:      *maxBody,
		SnapshotDir:       *snapshotDir,
		WALDir:            *walDir,
		WALSync:           mode,
	})
	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}

	// One shutdown path: the listener's exit and the signal both land
	// here, and teardown runs strictly in order — drain connections,
	// persist quiesced sessions, close engines. Snapshotting before the
	// drain would race in-flight commits; closing before the snapshot
	// would lose it.
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)

	log.Printf("fmerged: serving on %s (snapshots=%q wal=%q sync=%s)",
		*addr, *snapshotDir, *walDir, mode)
	select {
	case err := <-errc:
		// The listener died on its own (bad address, port in use, ...).
		if err != nil && err != http.ErrServerClosed {
			log.Fatalf("fmerged: %v", err)
		}
	case s := <-sig:
		log.Printf("fmerged: %v: shutting down", s)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		if err := hs.Shutdown(ctx); err != nil {
			log.Printf("fmerged: draining connections: %v", err)
		}
		cancel()
		if err := <-errc; err != nil && err != http.ErrServerClosed {
			log.Printf("fmerged: listener: %v", err)
		}
		if err := srv.SnapshotAll(); err != nil {
			log.Printf("fmerged: persisting sessions: %v", err)
		}
	}
	srv.Close()
}

func pickOut(out, fallback string) string {
	if out == "" {
		return fallback
	}
	return out
}

func writeReport(rep any, out string) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if out == "-" {
		_, err := os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(out, data, 0o644)
}

func runLoadgen(cfg serve.LoadConfig, out string) error {
	rep, err := serve.RunLoad(context.Background(), cfg, false)
	if err != nil {
		return err
	}
	if err := writeReport(rep, out); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr,
		"fmerged loadgen: %d clients over %d sessions: %d ops in %.1fs (%.1f ops/s), p50 %.1fms p95 %.1fms p99 %.1fms, %d conflicts, %d errors\n",
		rep.Config.Clients, rep.Config.Sessions, rep.Ops, rep.ElapsedSec, rep.ThroughputOps,
		rep.P50Ms, rep.P95Ms, rep.P99Ms, rep.Conflicts, rep.Errors)
	return nil
}

func runWALBench(cfg serve.LoadConfig, out string) error {
	rep, err := serve.RunWALBench(context.Background(), cfg)
	if err != nil {
		return err
	}
	if err := writeReport(rep, out); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr,
		"fmerged wal-bench: off %.1f ops/s, commit %.1f ops/s (+%.1f%%), batch %.1f ops/s (+%.1f%%); cold start %.1fms, crash recovery %.1fms (%d records replayed)\n",
		rep.Off.ThroughputOps, rep.Commit.ThroughputOps, rep.CommitOverheadPct,
		rep.Batch.ThroughputOps, rep.BatchOverheadPct, rep.ColdMs, rep.RecoveryMs, rep.Replayed)
	return nil
}
