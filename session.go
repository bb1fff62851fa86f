package repro

import (
	"context"
	"fmt"

	"repro/internal/driver"
)

// Session is a long-lived merge engine over one module, created by
// (*Optimizer).Open. Where Optimize rebuilds every index — fingerprint
// ranking or index, linearization/class cache — from scratch on
// each call, a Session builds them once and maintains them
// incrementally, so repeated runs over an evolving module pay only for
// the delta:
//
//	s, _ := opt.Open(ctx, m)
//	defer s.Close()
//	s.Optimize(ctx)              // full first run, indexes retained
//	...caller edits @foo, deletes @bar...
//	s.Update(ctx, "foo")         // re-index just the touched function
//	s.Remove(ctx, "bar")
//	s.Optimize(ctx)              // pays for the delta, not the module
//
// Beyond incremental Optimize, a Session splits planning from
// committing: Plan returns a serializable MergePlan of the merges a run
// would commit and leaves the module as it found it, and Apply commits a
// (possibly filtered) plan later — the shape a build service needs to
// review or audit merges before applying them.
//
// Sessions additionally memoize unprofitable candidate pairs across
// runs (an unprofitable trial depends only on the two bodies and the
// options), so a re-optimize skips the alignment DP of everything that
// already failed the cost model; see Report.OutcomeHits.
//
// Session methods are safe for concurrent use but execute one at a
// time. While a session method runs the module must not be accessed at
// all, not even read: every run, Plan included, builds its trial bodies
// in the module and takes them out again.
// The FMSA baseline is supported for Optimize only (register demotion
// rewrites the whole module around each run, so nothing can be carried
// over); Plan and Apply require a SalSSA variant.
type Session struct {
	s *driver.Session
}

// MergePlan is the serializable outcome of Session.Plan: the duplicate
// folds and merges a run would commit, in commit order, with nothing
// applied. It round-trips through encoding/json; Session.Apply verifies
// the embedded structural hashes, so a stale plan is rejected rather
// than silently merging changed code. Filtering entries out of a plan
// is sound; reordering them is not.
type MergePlan = driver.Plan

// PlannedMerge is one proposed merge within a MergePlan.
type PlannedMerge = driver.PlannedMerge

// PlannedFold is one proposed duplicate fold within a MergePlan.
type PlannedFold = driver.PlannedFold

// SessionSnapshot is the serializable outcome memo of a Session: the
// candidate pairs already proven unprofitable, with the structural hash
// of each function they name, versioned and checksummed. Save one to
// disk with encoding/json and a later process warm-restarts through
// (*Optimizer).OpenWithSnapshot without re-proving those verdicts.
type SessionSnapshot = driver.Snapshot

// ErrUnknownFunction is wrapped by Session.Update and Session.Remove
// when a name resolves to neither a module function nor an indexed
// candidate. Test with errors.Is.
var ErrUnknownFunction = driver.ErrUnknownFunction

// ErrConflictingDelta is wrapped by Session.UpdateBatch when one batch
// names the same function as both updated and removed — inside a batch
// there is no order to disambiguate the two, so the edit log is
// incoherent and the whole batch is rejected before anything is
// marked. Test with errors.Is.
var ErrConflictingDelta = driver.ErrConflictingDelta

// ErrStalePlan is wrapped by Session.Apply when a plan's structural
// hashes no longer match the module, or when a fold names two functions
// that are not duplicates. Test with errors.Is; the standard reaction is
// to Plan again and retry.
var ErrStalePlan = driver.ErrStalePlan

// Open builds a Session over m: every candidate and alignment index is
// constructed here, once, and then maintained incrementally. Open never
// mutates the module. The Optimizer stays reusable: any number of
// sessions (over different modules) may share it, and its one-shot
// methods keep working alongside them.
func (o *Optimizer) Open(ctx context.Context, m *Module) (*Session, error) {
	if m == nil {
		return nil, fmt.Errorf("repro: Open on nil module")
	}
	ds, err := driver.OpenSession(ctx, m, o.config())
	if err != nil {
		return nil, err
	}
	return &Session{s: ds}, nil
}

// OpenWithSnapshot is Open resuming from a SessionSnapshot taken by an
// earlier Session over the same (persisted) module: the indexes are
// built as Open builds them, then every memo pair whose two functions
// still match their snapshot hashes is restored, so the first run skips
// the trials the earlier session already found unprofitable (Report.
// OutcomeHits counts them). A snapshot that fails validation — wrong
// version, corrupt, or taken under a different configuration — is an
// error; callers typically fall back to Open.
func (o *Optimizer) OpenWithSnapshot(ctx context.Context, m *Module, snap *SessionSnapshot) (*Session, error) {
	if m == nil {
		return nil, fmt.Errorf("repro: OpenWithSnapshot on nil module")
	}
	ds, err := driver.OpenSessionWithSnapshot(ctx, m, o.config(), snap)
	if err != nil {
		return nil, err
	}
	return &Session{s: ds}, nil
}

// Optimize runs the full merging pipeline against the session's
// indexes, mutating the module in place. The first call is equivalent
// to (*Optimizer).Optimize; later calls are incremental, paying only
// for functions changed through Update/Remove (or by earlier commits).
// On cancellation it stops between trials, leaves every
// already-committed merge in place, and returns the partial report
// together with ctx.Err().
func (s *Session) Optimize(ctx context.Context) (*Report, error) {
	return s.s.Optimize(ctx)
}

// Plan is the dry run: the same candidate walk as Optimize, returning
// the MergePlan of merges (and duplicate folds) a commit run would
// apply. Its trials are built in place exactly as Optimize builds them
// and all discarded, so the module comes back as found. Plan requires a
// SalSSA variant.
func (s *Session) Plan(ctx context.Context) (*MergePlan, error) {
	return s.s.Plan(ctx)
}

// PlanReport is Plan with the dry run's accounting: the Report carries
// the loop's counters — attempts, memo hits, and the planning funnel's
// PairsScreened / TrialsBuilt / TrialsSkipped, the counts
// Optimize would report on the same module — plus phase timings, with
// FinalBytes equal to BaselineBytes since a dry run leaves the module
// as it found it.
func (s *Session) PlanReport(ctx context.Context) (*MergePlan, *Report, error) {
	return s.s.PlanReport(ctx)
}

// Snapshot exports the session's unprofitable-pair memo, with the
// structural hash of every function it names, as a serializable,
// checksummed SessionSnapshot. Persist it alongside the module text and
// a later process resumes through OpenWithSnapshot without re-proving
// those verdicts. Requires a SalSSA variant.
func (s *Session) Snapshot() (*SessionSnapshot, error) {
	return s.s.Snapshot()
}

// SaveSnapshot exports the session's outcome memo and writes it to path
// atomically (temp file + fsync + rename), so a crash mid-save leaves
// either the previous snapshot or the complete new one.
func (s *Session) SaveSnapshot(path string) error {
	snap, err := s.Snapshot()
	if err != nil {
		return err
	}
	return snap.SaveFile(path)
}

// LoadSessionSnapshot reads a snapshot written by SaveSnapshot (or any
// JSON-encoded SessionSnapshot). Validation — version, checksum,
// configuration guard — happens when the snapshot is handed to
// OpenWithSnapshot.
func LoadSessionSnapshot(path string) (*SessionSnapshot, error) {
	return driver.LoadSnapshotFile(path)
}

// SearchStats returns the candidate finder's cumulative accounting
// since the session opened. Built counts fingerprint computations:
// every candidate at open — through OpenWithSnapshot too — plus every
// re-index since.
func (s *Session) SearchStats() (SearchStats, error) {
	return s.s.SearchStats()
}

// Apply commits a plan — typically a possibly-filtered result of Plan —
// against the module. Every referenced function is verified against the
// plan's structural hash first; if the module changed underneath the
// plan, Apply fails with an error naming the stale function. A fold is
// applied only between structurally identical functions, and priced
// from the live body. On failure or cancellation the already-committed
// prefix stays in place.
func (s *Session) Apply(ctx context.Context, plan *MergePlan) (*Report, error) {
	return s.s.Apply(ctx, plan)
}

// Update re-indexes the named functions after the caller mutated them
// (or added them to the module): only they are re-fingerprinted,
// re-sketched and re-linearized, and only trial outcomes involving them
// are forgotten. A name still present in the module but no longer
// defined is treated as a removal. A name resolving to neither a module
// function nor an indexed candidate fails with an error wrapping
// ErrUnknownFunction, and the whole call is validated before anything
// is marked — on error no name took effect.
func (s *Session) Update(ctx context.Context, changed ...string) error {
	return s.s.Update(ctx, changed...)
}

// Remove drops the named functions from the candidate set, typically
// after the caller deleted them from the module. A function that is
// still defined simply stops being considered until a later Update
// re-admits it. A name resolving to neither an indexed candidate nor a
// module function fails with an error wrapping ErrUnknownFunction; like
// Update, the call validates every name before marking any.
func (s *Session) Remove(ctx context.Context, names ...string) error {
	return s.s.Remove(ctx, names...)
}

// UpdateBatch applies one coherent delta — changed (or added) function
// names plus removed names — in a single re-index pass: one finder
// batch insert, where n sequential Update/Remove calls would pay n. The resulting session
// state (and every later merge decision) is identical to the
// sequential calls. The whole batch is validated first: an unknown
// name fails with ErrUnknownFunction, a name in both lists with
// ErrConflictingDelta, and on error nothing is marked.
func (s *Session) UpdateBatch(ctx context.Context, changed, removed []string) error {
	return s.s.UpdateBatch(ctx, changed, removed)
}

// Flush forces the pending re-index window now instead of at the next
// Optimize, Plan or Apply: everything marked by Update, Remove or
// UpdateBatch is re-indexed in one batched pass. Flush only moves when
// the maintenance happens — session state and every later merge
// decision are identical either way. A serving daemon calls it to pay
// re-index cost at update time rather than on the first query after.
func (s *Session) Flush() error { return s.s.Flush() }

// Close releases the session's indexes; further method calls fail. The
// module is untouched and keeps every committed merge. Close is
// idempotent.
func (s *Session) Close() error { return s.s.Close() }
