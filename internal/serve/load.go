// The load benchmark: an in-process daemon under a configurable number
// of concurrent plan/apply clients, reporting throughput and latency
// percentiles. cmd/fmerged -loadgen runs it to produce
// BENCH_serve.json; TestLoadSmoke runs a small configuration in CI and
// additionally checks the daemon converged to exactly the module a
// single local Session produces.
package serve

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/client"
	"repro/internal/synth"
	"repro/internal/wal"
)

// LoadConfig shapes one load run.
type LoadConfig struct {
	// Clients is the number of concurrent clients (default 100).
	Clients int `json:"clients"`
	// Sessions is the number of daemon sessions the clients spread
	// over; each session serves Clients/Sessions clients (default 4).
	Sessions int `json:"sessions"`
	// Funcs is the synthetic corpus size per session (default 2000 —
	// the suite the Session benchmarks use).
	Funcs int `json:"funcs"`
	// Seed drives corpus generation (default 42, the sess2k suite).
	Seed int64 `json:"seed"`
	// MaxRounds caps each client's plan/apply rounds; 0 means run until
	// the session reaches its merge fixpoint (empty plan).
	MaxRounds int `json:"max_rounds,omitempty"`
	// WALDir, when non-empty, journals every committed mutation there —
	// the knob the WAL overhead benchmark turns.
	WALDir string `json:"wal_dir,omitempty"`
	// WALSync is the journal fsync policy: "commit" (default) or
	// "batch". Ignored without WALDir.
	WALSync string `json:"wal_sync,omitempty"`
}

func (c LoadConfig) withDefaults() LoadConfig {
	if c.Clients <= 0 {
		c.Clients = 100
	}
	if c.Sessions <= 0 {
		c.Sessions = 4
	}
	if c.Funcs <= 0 {
		c.Funcs = 2000
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	return c
}

// LoadReport is the benchmark result; cmd/fmerged -loadgen writes it as
// BENCH_serve.json.
type LoadReport struct {
	Config LoadConfig `json:"config"`
	// Ops counts successful plan/apply/create operations; Errors counts
	// hard failures (anything but plan conflicts and throttling);
	// Conflicts counts 409 stale-plan rejections (each followed by a
	// replan); Throttled counts 429/503 backoffs.
	Ops       int64 `json:"ops"`
	Errors    int64 `json:"errors"`
	Conflicts int64 `json:"conflicts"`
	Throttled int64 `json:"throttled"`
	// Merges and Folds total the commits across all sessions.
	Merges int64 `json:"merges"`
	Folds  int64 `json:"folds"`
	// ElapsedSec is the wall clock of the client phase; ThroughputOps
	// is Ops/ElapsedSec.
	ElapsedSec    float64 `json:"elapsed_sec"`
	ThroughputOps float64 `json:"throughput_ops_s"`
	// Latency percentiles over individual HTTP operations, in
	// milliseconds.
	P50Ms float64 `json:"p50_ms"`
	P95Ms float64 `json:"p95_ms"`
	P99Ms float64 `json:"p99_ms"`
	// FinalModules maps session name to the daemon's final module text
	// (populated only when CollectModules was set — the equivalence
	// check in tests; omitted from JSON).
	FinalModules map[string]string `json:"-"`
}

// loadCorpus generates the deterministic benchmark module text. The rng
// is explicit (rather than letting Generate derive one from the seed)
// so corpus generation stays order-independent when several load runs
// share a process — every run owns its generator.
func loadCorpus(funcs int, seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	return synth.GenerateWith(rng, synth.SuiteProfile(funcs, seed)).String()
}

// RunLoad stands up an in-process daemon on a loopback port, drives it
// with cfg.Clients concurrent plan/apply clients, and reports
// throughput and latency. Each client loops: plan; stop on an empty
// plan (the session's merge fixpoint); apply; count a 409 as a conflict
// and replan. collectModules additionally fetches every session's final
// module text into the report, for equivalence checks.
func RunLoad(ctx context.Context, cfg LoadConfig, collectModules bool) (*LoadReport, error) {
	cfg = cfg.withDefaults()
	mode, err := wal.ParseSyncMode(cfg.WALSync)
	if err != nil {
		return nil, err
	}
	srv := New(Config{
		MaxSessions:       cfg.Sessions + 1,
		MaxInflight:       4 * cfg.Clients,
		MaxClientInflight: 8,
		MaxClientFuncs:    cfg.Sessions*cfg.Funcs + 1,
		WALDir:            cfg.WALDir,
		WALSync:           mode,
	})
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	defer hs.Close()
	base := "http://" + ln.Addr().String()

	// One corpus, one session per copy: sessions are independent, so
	// the daemon's work scales with Sessions while every session
	// converges to the same fixpoint.
	corpus := loadCorpus(cfg.Funcs, cfg.Seed)
	admin := client.New(base, "loadgen-admin")
	sessions := make([]*client.SessionClient, cfg.Sessions)
	for i := range sessions {
		sc, err := admin.CreateSession(ctx, client.CreateSession{
			Name:   fmt.Sprintf("load-%d", i),
			Module: corpus,
		})
		if err != nil {
			return nil, fmt.Errorf("creating session %d: %w", i, err)
		}
		sessions[i] = sc
	}

	var (
		ops, errs, conflicts, throttled atomic.Int64
		merges, folds                   atomic.Int64
		latMu                           sync.Mutex
		latencies                       []time.Duration
	)
	record := func(d time.Duration) {
		ops.Add(1)
		latMu.Lock()
		latencies = append(latencies, d)
		latMu.Unlock()
	}

	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < cfg.Clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := client.New(base, fmt.Sprintf("loadgen-%d", i))
			sc := c.Session(fmt.Sprintf("load-%d", i%cfg.Sessions))
			// Throttling (429/503) is absorbed by capped exponential
			// backoff with jitter; 409 stays in the outer loop, because a
			// stale plan needs a replan, not a resend.
			backoff := client.RetryPolicy{
				Retryable: client.IsThrottled,
				OnBackoff: func(int, error, time.Duration) { throttled.Add(1) },
			}
			for round := 0; cfg.MaxRounds == 0 || round < cfg.MaxRounds; round++ {
				t0 := time.Now()
				var plan *client.Plan
				err := backoff.Do(ctx, func() error {
					var perr error
					plan, perr = sc.Plan(ctx)
					return perr
				})
				if err != nil {
					errs.Add(1)
					return
				}
				record(time.Since(t0))
				if len(plan.Merges)+len(plan.Folds) == 0 {
					return // fixpoint reached
				}
				t0 = time.Now()
				var rep client.Report
				err = backoff.Do(ctx, func() error {
					var aerr error
					rep, aerr = sc.Apply(ctx, plan)
					return aerr
				})
				switch {
				case err == nil:
					record(time.Since(t0))
					merges.Add(int64(rep.Merges))
					folds.Add(int64(rep.Folds))
				case client.IsConflict(err):
					conflicts.Add(1) // another client won the commit: replan
				default:
					errs.Add(1)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := &LoadReport{
		Config:     cfg,
		Ops:        ops.Load(),
		Errors:     errs.Load(),
		Conflicts:  conflicts.Load(),
		Throttled:  throttled.Load(),
		Merges:     merges.Load(),
		Folds:      folds.Load(),
		ElapsedSec: elapsed.Seconds(),
	}
	if rep.ElapsedSec > 0 {
		rep.ThroughputOps = float64(rep.Ops) / rep.ElapsedSec
	}
	latMu.Lock()
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	rep.P50Ms = percentileMs(latencies, 0.50)
	rep.P95Ms = percentileMs(latencies, 0.95)
	rep.P99Ms = percentileMs(latencies, 0.99)
	latMu.Unlock()

	if collectModules {
		rep.FinalModules = map[string]string{}
		for i, sc := range sessions {
			text, err := sc.Module(ctx)
			if err != nil {
				return nil, fmt.Errorf("fetching final module %d: %w", i, err)
			}
			rep.FinalModules[fmt.Sprintf("load-%d", i)] = text
		}
	}
	return rep, nil
}

func percentileMs(sorted []time.Duration, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p * float64(len(sorted)-1))
	return float64(sorted[idx]) / float64(time.Millisecond)
}
