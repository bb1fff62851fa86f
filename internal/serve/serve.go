// Package serve is merge-as-a-service: an HTTP daemon over long-lived
// merge Sessions. Each named session owns one module and one
// repro.Session; clients stream module deltas as textual IR, plan
// merges, and commit plans with optimistic concurrency — a plan whose
// structural hashes no longer match the module is rejected with 409
// Conflict and the client replans, so concurrent clients serialize
// through hash validation rather than long-held locks.
//
// The daemon admits work through three gates: a global in-flight cap
// (503 when the server is saturated), a per-client in-flight cap (429
// for one greedy client), and a per-client function-count quota (429
// when a client's sessions grow past its budget). A session's outcome
// memo persists as a checksummed snapshot next to the module text, so a
// restarted daemon's first run skips the trials the previous process
// already found unprofitable.
//
// # Durability
//
// With WALDir set, every committed mutation — update, remove, apply,
// optimize — is journaled to a per-session write-ahead log before the
// client is acknowledged (internal/wal: length-prefixed, CRC-checksummed
// records, fsync per WALSync). Session creation persists the module
// text immediately, so recovery always has a base: a crashed daemon
// recreating a session by name loads the last persisted module (and
// memo snapshot, when it validates), replays the journal tail on top
// of it — truncating at the first torn record — and re-persists, so
// every acknowledged mutation survives kill -9. Snapshot and module
// files are written atomically (temp + fsync + rename + dir fsync); a
// successful snapshot rotates the journal.
//
// # Quarantine
//
// A panic inside one session's merge walk must not take the daemon
// down, and a session whose in-memory state may have diverged from its
// journal must not keep acknowledging work it cannot make durable. Both
// conditions quarantine the session: the triggering request gets a 500,
// every later request a 503, Stats counts it, and healthz degrades.
// DELETE clears the quarantine; recreating the session recovers the
// last durable state.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"regexp"
	"sync"
	"sync/atomic"

	repro "repro"
	"repro/internal/fault"
	"repro/internal/irtext"
	"repro/internal/serve/api"
	"repro/internal/wal"
)

// Config sizes the daemon's admission control and persistence.
// Zero values select the documented defaults.
type Config struct {
	// MaxSessions caps the live sessions (default 64).
	MaxSessions int
	// MaxInflight caps concurrently executing requests across all
	// clients; excess requests are rejected with 503 (default 256).
	MaxInflight int
	// MaxClientInflight caps concurrently executing requests per
	// client, identified by the X-Client-ID header (falling back to the
	// remote address); excess is rejected with 429 (default 32).
	MaxClientInflight int
	// MaxClientFuncs caps the total defined functions across one
	// client's sessions — the index-memory quota. Session creation or
	// an update that would exceed it is rejected with 429 (default
	// 100000).
	MaxClientFuncs int
	// MaxBodyBytes caps a request body (default 64 MiB).
	MaxBodyBytes int64
	// SnapshotDir, when non-empty, enables persistence: POST
	// /v1/sessions/{name}/snapshot writes the module text and memo
	// snapshot there, and session creation warm-restarts from it.
	// Defaults to WALDir when only journaling was configured.
	SnapshotDir string
	// WALDir, when non-empty, enables write-ahead journaling: every
	// committed mutation is journaled before its client is acknowledged,
	// and session creation by name replays the journal tail on top of
	// the last persisted module.
	WALDir string
	// WALSync is the journal fsync policy (default wal.SyncCommit:
	// fsync per record; wal.SyncBatch trades the unsynced tail for
	// throughput).
	WALSync wal.SyncMode
	// FS is the filesystem the durability layer writes through; nil
	// means the real OS. Tests inject faults here.
	FS fault.FS
}

func (c Config) withDefaults() Config {
	if c.MaxSessions <= 0 {
		c.MaxSessions = 64
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 256
	}
	if c.MaxClientInflight <= 0 {
		c.MaxClientInflight = 32
	}
	if c.MaxClientFuncs <= 0 {
		c.MaxClientFuncs = 100_000
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	if c.SnapshotDir == "" {
		// Journal recovery needs a persisted module to replay on top of,
		// so enabling the WAL enables module/snapshot persistence too.
		c.SnapshotDir = c.WALDir
	}
	if c.FS == nil {
		c.FS = fault.OS{}
	}
	return c
}

// Server is the daemon state behind Handler. Create one with New; it
// has no background goroutines of its own, so shutting down the
// http.Server that carries it is a complete shutdown (call
// SnapshotAll first to persist).
type Server struct {
	cfg Config
	fs  fault.FS

	mu       sync.Mutex
	sessions map[string]*served
	clients  map[string]*clientState

	inflight     atomic.Int64
	ops          atomic.Int64
	rejected503  atomic.Int64
	rejected429  atomic.Int64
	conflicts409 atomic.Int64
	warmRestores atomic.Int64
	panics       atomic.Int64
}

// served is one named session: the module, the engine over it, the
// journal, and a mutex serializing every operation that touches any of
// them (module splices must not interleave with engine walks).
type served struct {
	mu       sync.Mutex
	name     string
	owner    string // client that created it, for the function quota
	m        *repro.Module
	sess     *repro.Session
	j        *wal.Journal
	warm     bool
	funcs    int // defined functions, maintained on update/remove
	replayed int // journal records replayed at creation
	// quarantined flips once and stays: the session panicked mid-walk
	// (its in-memory state is suspect) or a journal write failed (its
	// durable state trails the acknowledged one). Atomic so Stats can
	// read it without taking every session's mutex.
	quarantined atomic.Bool
}

type clientState struct {
	inflight int
	funcs    int // defined functions across this client's sessions
}

// New builds a Server. The daemon is ready as soon as its Handler is
// mounted; sessions appear on demand.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	return &Server{
		cfg:      cfg,
		fs:       cfg.FS,
		sessions: map[string]*served{},
		clients:  map[string]*clientState{},
	}
}

// sessionName constrains names to filesystem- and URL-safe tokens,
// since they become snapshot file names.
var sessionName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$`)

// Stats returns the daemon's live occupancy and cumulative accounting.
func (s *Server) Stats() api.ServerStats {
	s.mu.Lock()
	n := len(s.sessions)
	quarantined := 0
	for _, sv := range s.sessions {
		if sv.quarantined.Load() {
			quarantined++
		}
	}
	s.mu.Unlock()
	return api.ServerStats{
		Sessions:     n,
		Quarantined:  quarantined,
		Inflight:     int(s.inflight.Load()),
		Ops:          s.ops.Load(),
		Rejected503:  s.rejected503.Load(),
		Rejected429:  s.rejected429.Load(),
		Conflicts409: s.conflicts409.Load(),
		WarmRestores: s.warmRestores.Load(),
		Panics:       s.panics.Load(),
	}
}

// SnapshotAll persists every live session's module text and index
// snapshot under SnapshotDir — the graceful-shutdown hook. Every failed
// session is reported (errors.Join), not just the first, so operators
// see the full damage; the rest still persist.
func (s *Server) SnapshotAll() error {
	if s.cfg.SnapshotDir == "" {
		return nil
	}
	s.mu.Lock()
	all := make([]*served, 0, len(s.sessions))
	for _, sv := range s.sessions {
		all = append(all, sv)
	}
	s.mu.Unlock()
	var errs []error
	for _, sv := range all {
		if err := s.snapshotOne(sv); err != nil {
			errs = append(errs, fmt.Errorf("serve: snapshot %q: %w", sv.name, err))
		}
	}
	return errors.Join(errs...)
}

// snapshotOne persists one session, refusing quarantined sessions
// (their in-memory state is suspect; overwriting the last good
// snapshot with it would destroy the recovery point) and converting a
// panic in a poisoned engine walk into an error instead of killing the
// shutdown path.
func (s *Server) snapshotOne(sv *served) (err error) {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	if sv.quarantined.Load() {
		return fmt.Errorf("session is quarantined; keeping the last good snapshot")
	}
	defer func() {
		if p := recover(); p != nil {
			s.panics.Add(1)
			sv.quarantined.Store(true)
			err = fmt.Errorf("panic while persisting: %v", p)
		}
	}()
	return s.persist(sv)
}

// Close closes every live session (without persisting; call SnapshotAll
// first if that is wanted). Journals are synced and closed, so a
// graceful close in batch mode loses nothing.
func (s *Server) Close() {
	s.mu.Lock()
	all := make([]*served, 0, len(s.sessions))
	for _, sv := range s.sessions {
		all = append(all, sv)
	}
	s.sessions = map[string]*served{}
	s.clients = map[string]*clientState{}
	s.mu.Unlock()
	for _, sv := range all {
		sv.mu.Lock()
		closeSession(sv)
		sv.mu.Unlock()
	}
}

// closeSession closes the journal and engine of sv (caller holds
// sv.mu), absorbing a panic from a poisoned engine into an error.
func closeSession(sv *served) (err error) {
	if sv.j != nil {
		sv.j.Close()
		sv.j = nil
	}
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic closing session %q: %v", sv.name, p)
		}
	}()
	return sv.sess.Close()
}

// modulePath / snapshotPath / walPath are the three files a persisted
// session owns.
func (s *Server) modulePath(name string) string {
	return filepath.Join(s.cfg.SnapshotDir, name+".ir")
}

func (s *Server) snapshotPath(name string) string {
	return filepath.Join(s.cfg.SnapshotDir, name+".snap.json")
}

func (s *Server) walPath(name string) string {
	return filepath.Join(s.cfg.WALDir, name+".wal")
}

// persist writes the module text and the memo snapshot for sv, each
// atomically (temp + fsync + rename + dir fsync), then rotates the
// journal: the persisted module now contains every journaled record,
// so the journal restarts empty, bound to the new module hash. Caller
// holds sv.mu. A crash at any instant leaves a recoverable pair: the
// module file is always either the old or the new complete text, and a
// stale journal is detected by its base hash and skipped.
//
// The module text is written first: a module without a fresh memo
// snapshot cold-starts (the snapshot is a cache, invalidated
// per-function by hash), while a snapshot without its module would be
// useless.
func (s *Server) persist(sv *served) error {
	if s.cfg.SnapshotDir == "" {
		return fmt.Errorf("no snapshot directory configured")
	}
	if err := s.fs.MkdirAll(s.cfg.SnapshotDir, 0o755); err != nil {
		return err
	}
	snap, err := sv.sess.Snapshot()
	if err != nil {
		return err
	}
	text := []byte(repro.FormatModule(sv.m))
	if err := fault.WriteAtomic(s.fs, s.modulePath(sv.name), text, 0o644); err != nil {
		return err
	}
	data, err := json.Marshal(snap) // Snapshot() returns sealed values
	if err != nil {
		return err
	}
	if err := fault.WriteAtomic(s.fs, s.snapshotPath(sv.name), data, 0o644); err != nil {
		return err
	}
	return s.rotateJournal(sv, wal.Hash(text))
}

// rotateJournal atomically replaces sv's journal with a fresh one
// bound to base. Rotation failure quarantines the session: without a
// journal it cannot make further mutations durable, and acknowledging
// them anyway would break the recovery contract. Caller holds sv.mu.
// With journaling disabled this is a no-op.
func (s *Server) rotateJournal(sv *served, base uint64) error {
	if s.cfg.WALDir == "" {
		return nil
	}
	if sv.j != nil {
		sv.j.Close()
		sv.j = nil
	}
	j, err := wal.Create(s.fs, s.walPath(sv.name), base, s.cfg.WALSync)
	if err != nil {
		sv.quarantined.Store(true)
		return fmt.Errorf("rotating journal (session quarantined): %w", err)
	}
	sv.j = j
	return nil
}

// journal appends one committed mutation to sv's journal — the step
// between the in-memory commit and the client acknowledgment. A failed
// append quarantines the session: its in-memory state now leads what
// recovery can reconstruct, so acknowledging further work would lie.
// Caller holds sv.mu. With journaling disabled this is a no-op.
func (s *Server) journal(sv *served, rec wal.Record) error {
	if sv.j == nil {
		return nil
	}
	if err := sv.j.Append(rec); err != nil {
		sv.quarantined.Store(true)
		return fmt.Errorf("journal append failed (session quarantined): %w", err)
	}
	return nil
}

// attachJournal wires durability onto a freshly created session.
// Caller holds sv.mu; sv.m and sv.sess are set.
//
// For an inline module (fresh create), the module text is persisted
// immediately — recovery always needs a base to replay on — and a
// fresh journal is bound to it.
//
// For a restore (diskText is the persisted module bytes), the existing
// journal is opened and its tail replayed on top of the session when
// its base matches the persisted module; a journal whose base differs
// predates a crash that interrupted persistence after the module
// rename, meaning all its records are already in the module, so it is
// rotated away unread. After a non-trivial replay the recovered state
// is re-persisted (which rotates), so recovery converges in one step.
func (s *Server) attachJournal(ctx context.Context, sv *served, diskText []byte) error {
	if s.cfg.WALDir == "" {
		return nil
	}
	if err := s.fs.MkdirAll(s.cfg.WALDir, 0o755); err != nil {
		return err
	}
	if diskText == nil {
		// Fresh inline module: persist the text, bind a fresh journal.
		if err := s.fs.MkdirAll(s.cfg.SnapshotDir, 0o755); err != nil {
			return err
		}
		text := []byte(repro.FormatModule(sv.m))
		if err := fault.WriteAtomic(s.fs, s.modulePath(sv.name), text, 0o644); err != nil {
			return err
		}
		return s.rotateJournal(sv, wal.Hash(text))
	}

	h := wal.Hash(diskText)
	j, base, recs, torn, err := wal.Open(s.fs, s.walPath(sv.name), s.cfg.WALSync)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		return s.rotateJournal(sv, h)
	case err != nil:
		return err
	case j == nil || base != h:
		// Unusable begin record, or a journal older than the persisted
		// module: every record it holds is already in the module.
		if j != nil {
			j.Close()
		}
		return s.rotateJournal(sv, h)
	}
	sv.j = j
	replayed, rerr := s.replayJournal(ctx, sv, recs)
	sv.replayed = replayed
	if rerr != nil || torn || replayed > 0 {
		// The in-memory state now leads the persisted module; persist it
		// (and rotate) so the next recovery starts from here. A record
		// that fails semantic replay marks the end of the usable tail —
		// everything after it depended on a mutation that did not take.
		return s.persist(sv)
	}
	return nil
}

// replayJournal applies journal records through the same paths the
// handlers use, stopping at the first record that no longer applies.
// It returns how many records took effect.
func (s *Server) replayJournal(ctx context.Context, sv *served, recs []Record) (int, error) {
	for i, rec := range recs {
		if err := s.replayRecord(ctx, sv, rec); err != nil {
			return i, fmt.Errorf("journal record %d (%s): %w", i, rec.Op, err)
		}
	}
	return len(recs), nil
}

// Record is re-exported so the chaos harness can build journals.
type Record = wal.Record

func (s *Server) replayRecord(ctx context.Context, sv *served, rec Record) error {
	switch rec.Op {
	case wal.OpUpdate, wal.OpRemove, wal.OpBatch:
		_, refused, err := applyDelta(ctx, sv, rec)
		if refused != nil {
			return refused
		}
		return err
	case wal.OpApply:
		var plan repro.MergePlan
		if err := json.Unmarshal(rec.Plan, &plan); err != nil {
			return err
		}
		_, err := sv.sess.Apply(ctx, &plan)
		return err
	case wal.OpOptimize:
		_, err := sv.sess.Optimize(ctx)
		return err
	default:
		return fmt.Errorf("unknown journal op %q", rec.Op)
	}
}

// applyDelta splices a delta record's fragment into the session's
// module and marks the session, as one step: the marks are taken once
// the whole fragment has parsed and before any body is grafted
// (irtext.ParseIntoChecked), so a delta the session refuses — a batch
// that removes a name it also defines, an unknown removal, a cancelled
// request — leaves the module as it was. It returns the names the
// fragment defined (always for an update, for a batch that carries a
// fragment, never for a remove) and the session's refusal apart from a
// malformed fragment.
func applyDelta(ctx context.Context, sv *served, rec Record) (names []string, refused, err error) {
	mark := func(names []string) error {
		switch rec.Op {
		case wal.OpUpdate:
			refused = sv.sess.Update(ctx, names...)
		case wal.OpRemove:
			refused = sv.sess.Remove(ctx, rec.Names...)
		default:
			refused = sv.sess.UpdateBatch(ctx, names, rec.Names)
		}
		return refused
	}
	if rec.Op == wal.OpRemove || rec.Op == wal.OpBatch && rec.Fragment == "" {
		return nil, mark(nil), nil
	}
	names, err = irtext.ParseIntoChecked(sv.m, rec.Fragment, mark)
	if refused != nil {
		return nil, refused, nil
	}
	return names, nil, err
}
