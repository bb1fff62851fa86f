// On-disk outcome memos. What a restarted merge service cannot rebuild
// cheaply is the set of candidate pairs already proven unprofitable:
// each verdict cost an alignment and often a trial build (the greedy
// loop of the paper's Fig. 16). Session.Snapshot exports that memo into
// a versioned, checksummed, JSON-serializable value;
// OpenSessionWithSnapshot opens the session cold — the finder and every
// other index layer are rebuilt from the module, which costs less than
// checking stored fingerprints would, since a stored fingerprint can
// only be trusted after its function is hashed — and restores the memo
// pairs whose two functions still hash as they did. The snapshot
// carries:
//
//   - per function that appears in the memo: its name and structural
//     hash;
//   - the unprofitable-pair outcome memo, as index pairs into that
//     function table (entries touching family heads are excluded — a
//     flatten verdict depends on the family registry, which is session
//     state and not snapshotted).
//
// What is NOT carried: the family registry (original member bodies are
// unserializable session state — a restored session nests where the old
// one would have flattened, exactly like any fresh session over an
// already-merged module), the finder's fingerprints and what the
// records build on first use, which are rebuilt at open and lazily.
package driver

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strconv"

	"repro/internal/fault"
	"repro/internal/ir"
	"repro/internal/search"
)

// SnapshotVersion is the current snapshot format version; snapshots
// recording any other version are rejected, and the caller cold-opens
// (a snapshot is a cache). Version 2 added per-function hashes; version
// 3 dropped the per-function minhash band keys along with the sketch
// they belonged to. Version 4 added the size-model target to the config
// guard: the memo holds verdicts priced under one target, and a
// version-3 snapshot never recorded which. Version 5 reduced the
// snapshot to the outcome memo: the per-candidate fingerprints and the
// finder name went.
const SnapshotVersion = 5

// Snapshot is the serializable outcome memo of a Session. It
// round-trips through encoding/json.
type Snapshot struct {
	Version  int    `json:"version"`
	Checksum string `json:"checksum"` // FNV-1a 64 over the JSON with this field empty

	// Config guard: a snapshot only restores into a session configured
	// identically for every field the memo's verdicts depend on.
	Algorithm string `json:"algorithm"`
	Threshold int    `json:"threshold"`
	Target    string `json:"target"`
	DupFold   bool   `json:"dup_fold"`
	MaxFamily int    `json:"max_family"`
	MinInstrs int    `json:"min_instrs"`

	// Funcs lists each function that appears in Outcomes once, in module
	// definition order.
	Funcs []SnapshotFunc `json:"funcs"`
	// Outcomes lists the memoized-unprofitable pairs as index pairs
	// into Funcs, in deterministic order.
	Outcomes [][2]int `json:"outcomes,omitempty"`
}

// SnapshotFunc is one memo function.
type SnapshotFunc struct {
	Name string `json:"name"`
	// Hash is the structural hash the function had at snapshot time;
	// restore trusts the function's memo pairs only when its current
	// body still hashes to it.
	Hash uint64 `json:"hash,string"`
}

// fnv1a64 matches the search package's FNV-1a parameters.
func fnv1a64(data []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range data {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// checksum computes the canonical checksum of s (the JSON encoding with
// the Checksum field blank).
func (s *Snapshot) checksum() (string, error) {
	saved := s.Checksum
	s.Checksum = ""
	data, err := json.Marshal(s)
	s.Checksum = saved
	if err != nil {
		return "", err
	}
	return strconv.FormatUint(fnv1a64(data), 16), nil
}

// Seal stamps the checksum. Snapshot returns sealed values; callers that
// edit a snapshot by hand must re-seal it or restore will reject it.
func (s *Snapshot) Seal() error {
	sum, err := s.checksum()
	if err != nil {
		return err
	}
	s.Checksum = sum
	return nil
}

// SaveFile writes the snapshot's JSON encoding to path atomically
// (temp file + fsync + rename + directory fsync): a crash mid-save
// leaves either the previous snapshot or the complete new one, never a
// torn file that a later restore would reject as corrupt.
func (s *Snapshot) SaveFile(path string) error {
	data, err := json.Marshal(s)
	if err != nil {
		return err
	}
	return fault.WriteAtomic(fault.OS{}, path, data, 0o644)
}

// LoadSnapshotFile reads a snapshot written by SaveFile. Decoding is
// all it does — version, checksum and config validation happen in
// OpenSessionWithSnapshot, so a stale or foreign file fails there with
// a precise error rather than here with a generic one.
func LoadSnapshotFile(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("driver: decoding snapshot %s: %w", path, err)
	}
	return &snap, nil
}

// Snapshot exports the session's outcome memo. The pending delta is
// synced first, so the snapshot describes the module as the next run
// would see it. FMSA sessions carry no persistent memo and cannot be
// snapshotted.
func (s *Session) Snapshot() (*Snapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errClosed
	}
	if s.cfg.Algorithm == FMSA {
		return nil, fmt.Errorf("driver: Snapshot requires a SalSSA variant; FMSA sessions keep no persistent indexes")
	}
	s.sync()
	snap := &Snapshot{
		Version:   SnapshotVersion,
		Algorithm: s.cfg.Algorithm.String(),
		Threshold: s.cfg.Threshold,
		Target:    s.cfg.Target.String(),
		DupFold:   s.cfg.DupFold,
		MaxFamily: s.cfg.MaxFamily,
		MinInstrs: s.cfg.MinInstrs,
	}
	order := s.candidateOrder()
	pos := make(map[*ir.Function]int, len(order))
	for i, f := range order {
		pos[f] = i
	}
	// The memo as pairs of candidate positions, rows and each row's
	// partners in candidate order. Pairs where either side could flatten
	// are skipped: their verdicts were taken against the family
	// registry, which does not survive the snapshot.
	var pairs [][2]int
	for i1, f1 := range order {
		if s.families.isHead(f1) {
			continue
		}
		row := len(pairs)
		for f2 := range s.outcomes.pairs[f1] {
			if i2, ok := pos[f2]; ok && !s.families.isHead(f2) {
				pairs = append(pairs, [2]int{i1, i2})
			}
		}
		slices.SortFunc(pairs[row:], func(a, b [2]int) int { return a[1] - b[1] })
	}
	// Renumber the positions the pairs use into the function table.
	slot := make([]int, len(order))
	for _, p := range pairs {
		slot[p[0]], slot[p[1]] = 1, 1
	}
	for i, f := range order {
		if slot[i] != 0 {
			slot[i] = len(snap.Funcs)
			snap.Funcs = append(snap.Funcs, SnapshotFunc{Name: f.Name(), Hash: s.recs.hash(f)})
		}
	}
	for _, p := range pairs {
		snap.Outcomes = append(snap.Outcomes, [2]int{slot[p[0]], slot[p[1]]})
	}
	if err := snap.Seal(); err != nil {
		return nil, err
	}
	return snap, nil
}

// validateSnapshot checks the parts of a snapshot that do not depend on
// the module: version, checksum and the config guard.
func validateSnapshot(snap *Snapshot, cfg Config) error {
	if snap == nil {
		return fmt.Errorf("driver: nil snapshot")
	}
	if snap.Version != SnapshotVersion {
		return fmt.Errorf("driver: snapshot version %d, want %d", snap.Version, SnapshotVersion)
	}
	sum, err := snap.checksum()
	if err != nil {
		return err
	}
	if snap.Checksum != sum {
		return fmt.Errorf("driver: snapshot checksum mismatch (have %s, computed %s)", snap.Checksum, sum)
	}
	switch {
	case snap.Algorithm != cfg.Algorithm.String():
		return fmt.Errorf("driver: snapshot was taken under %s, session runs %s", snap.Algorithm, cfg.Algorithm)
	case snap.Threshold != cfg.Threshold:
		return fmt.Errorf("driver: snapshot threshold %d, session %d", snap.Threshold, cfg.Threshold)
	case snap.Target != cfg.Target.String():
		return fmt.Errorf("driver: snapshot target %s, session %s", snap.Target, cfg.Target)
	case snap.DupFold != cfg.DupFold:
		return fmt.Errorf("driver: snapshot dup-fold %v, session %v", snap.DupFold, cfg.DupFold)
	case snap.MaxFamily != cfg.MaxFamily:
		return fmt.Errorf("driver: snapshot max-family %d, session %d", snap.MaxFamily, cfg.MaxFamily)
	case snap.MinInstrs != cfg.MinInstrs:
		return fmt.Errorf("driver: snapshot min-instrs %d, session %d", snap.MinInstrs, cfg.MinInstrs)
	}
	return nil
}

// OpenSessionWithSnapshot is OpenSession resuming from a snapshot: the
// session is opened cold, then each memo pair is restored when both its
// names resolve to distinct candidates whose current bodies still hash
// to the recorded values. A snapshot that fails validation (wrong
// version, corrupt, or taken under a different configuration) is an
// error — callers typically fall back to a cold OpenSession. Functions
// that drifted simply lose their memo pairs; that is a per-function
// cost, not an error.
func OpenSessionWithSnapshot(ctx context.Context, m *ir.Module, cfg Config, snap *Snapshot) (*Session, error) {
	if m == nil {
		return nil, fmt.Errorf("driver: open session on nil module")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if cfg.Algorithm == FMSA {
		return nil, fmt.Errorf("driver: snapshots require a SalSSA variant")
	}
	if err := validateSnapshot(snap, cfg); err != nil {
		return nil, err
	}
	s := &Session{m: m, cfg: cfg, pending: map[*ir.Function]bool{}}
	s.buildIndexes()
	// matched[i] is the candidate named snap.Funcs[i].Name whose current
	// structural hash equals the recorded one, or nil. Hashing through
	// the records hands the first fold step these hashes.
	matched := make([]*ir.Function, len(snap.Funcs))
	for i, sf := range snap.Funcs {
		if f := s.byName[sf.Name]; f != nil && s.recs.hash(f) == sf.Hash {
			matched[i] = f
		}
	}
	for _, pair := range snap.Outcomes {
		i1, i2 := pair[0], pair[1]
		if i1 < 0 || i1 >= len(matched) || i2 < 0 || i2 >= len(matched) {
			continue
		}
		// Snapshot skips every pair that could flatten, so what comes
		// back is pairwise.
		if f1, f2 := matched[i1], matched[i2]; f1 != nil && f2 != nil && f1 != f2 {
			s.outcomes.put(f1, f2, pairOutcome)
		}
	}
	return s, nil
}

// SearchStats returns the finder's cumulative accounting since the
// session opened (not the per-run delta a Result reports). Built counts
// fingerprint computations: every candidate at open, warm or cold, plus
// every re-index since.
func (s *Session) SearchStats() (search.Stats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return search.Stats{}, errClosed
	}
	if s.finder == nil {
		return search.Stats{}, nil
	}
	return s.finder.Stats(), nil
}
