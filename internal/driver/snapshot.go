// On-disk index snapshots. A warm restart of a merge service should not
// pay the full index rebuild — fingerprinting and hashing every
// candidate — when the module it serves is byte-identical to what
// the previous process saw. Session.Snapshot exports the persistent
// index layers into a versioned, checksummed, JSON-serializable value;
// OpenSessionWithSnapshot rebuilds a session from it, validating every
// function against its recorded structural hash and recomputing only
// what drifted. The snapshot carries:
//
//   - per candidate: the structural hash and the opcode fingerprint;
//   - the unprofitable-pair outcome memo, as index pairs into the
//     function table (entries touching family heads are excluded — a
//     flatten verdict depends on the family registry, which is session
//     state and not snapshotted).
//
// What is NOT carried: the family registry (original member bodies are
// unserializable session state — a restored session nests where the old
// one would have flattened, exactly like any fresh session over an
// already-merged module) and the align.Cache linearizations, which are
// rebuilt lazily per pair.
package driver

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strconv"

	"repro/internal/align"
	"repro/internal/fault"
	"repro/internal/fingerprint"
	"repro/internal/ir"
	"repro/internal/search"
)

// SnapshotVersion is the current snapshot format version; snapshots
// recording any other version are rejected, and the caller cold-opens
// (a snapshot is a cache). Version 2 added the canonical-view guard
// (Snapshot.Canon) and per-function canonical hashes
// (SnapshotFunc.CanonHash); version 3 dropped the per-function minhash
// band keys along with the sketch they belonged to.
const SnapshotVersion = 3

// Snapshot is the serializable index state of a Session. It round-trips
// through encoding/json.
type Snapshot struct {
	Version  int    `json:"version"`
	Checksum string `json:"checksum"` // FNV-1a 64 over the JSON with this field empty

	// Config guard: a snapshot only restores into a session configured
	// identically for every field the indexes depend on.
	Algorithm string `json:"algorithm"`
	Threshold int    `json:"threshold"`
	Finder    string `json:"finder"`
	DupFold   bool   `json:"dup_fold"`
	MaxFamily int    `json:"max_family"`
	MinInstrs int    `json:"min_instrs"`
	// Canon names the canonicalization pipeline the indexes were computed
	// under ("" when canon was off). Fingerprints and canonical
	// hashes from one pipeline must never seed a session running another:
	// the two hash spaces are unrelated, so a mismatch is a hard
	// rejection, not a per-function drift.
	Canon string `json:"canon,omitempty"`

	Funcs []SnapshotFunc `json:"funcs"`
	// Outcomes lists the memoized-unprofitable pairs as index pairs
	// into Funcs, in deterministic order.
	Outcomes [][2]int `json:"outcomes,omitempty"`
}

// SnapshotFunc is one candidate's index state.
type SnapshotFunc struct {
	Name string `json:"name"`
	// Hash is the structural hash the function had at snapshot time;
	// restore trusts the fingerprint only when the current
	// body still hashes to it.
	Hash   uint64 `json:"hash,string"`
	Blocks int32  `json:"blocks"`
	Size   int32  `json:"size"`
	// Ops is the sparse opcode-count vector: flattened (opcode, count)
	// pairs, ascending by opcode.
	Ops []int32 `json:"ops"`
	// CanonHash is the structural hash of the function's canonical view
	// (0 when canon was off). A warm restart primes the session's lens
	// with it so duplicate-fold bucketing works without building a single
	// view; views are then only materialized inside hash-equal buckets.
	CanonHash uint64 `json:"canon_hash,string,omitempty"`
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

// Snapshot exports the session's index state. The pending delta is
// synced first, so the snapshot describes the module as the next run
// would see it. FMSA sessions carry no persistent indexes and cannot be
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
		Finder:    search.KindLSH.String(),
		DupFold:   s.cfg.DupFold,
		MaxFamily: s.cfg.MaxFamily,
		MinInstrs: s.cfg.MinInstrs,
		Canon:     s.cfg.Canon.String(),
	}
	idx := search.Export(s.finder)
	pos := make(map[*ir.Function]int, len(idx))
	for _, f := range s.candidateOrder() {
		fp := idx[f]
		if fp == nil {
			continue
		}
		entry := SnapshotFunc{
			Name:   f.Name(),
			Hash:   search.HashFunction(f),
			Blocks: fp.Blocks,
			Size:   fp.Size,
		}
		if s.lens != nil {
			entry.CanonHash = s.lens.Hash(f)
		}
		for op, c := range fp.OpCount {
			if c != 0 {
				entry.Ops = append(entry.Ops, int32(op), c)
			}
		}
		pos[f] = len(snap.Funcs)
		snap.Funcs = append(snap.Funcs, entry)
	}
	// The outcome memo, in candidate order for determinism. Pairs where
	// either side could flatten are skipped: their verdicts were taken
	// against the family registry, which does not survive the snapshot.
	for _, f1 := range s.candidateOrder() {
		i1, ok := pos[f1]
		if !ok {
			continue
		}
		row := s.outcomes.pairs[f1]
		if len(row) == 0 {
			continue
		}
		for _, f2 := range s.candidateOrder() {
			if !row[f2] {
				continue
			}
			i2, ok := pos[f2]
			if !ok {
				continue
			}
			if s.families != nil && (s.families.isHead(f1) || s.families.isHead(f2)) {
				continue
			}
			snap.Outcomes = append(snap.Outcomes, [2]int{i1, i2})
		}
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
	case snap.DupFold != cfg.DupFold:
		return fmt.Errorf("driver: snapshot dup-fold %v, session %v", snap.DupFold, cfg.DupFold)
	case snap.MaxFamily != cfg.MaxFamily:
		return fmt.Errorf("driver: snapshot max-family %d, session %d", snap.MaxFamily, cfg.MaxFamily)
	case snap.MinInstrs != cfg.MinInstrs:
		return fmt.Errorf("driver: snapshot min-instrs %d, session %d", snap.MinInstrs, cfg.MinInstrs)
	case snap.Canon != cfg.Canon.String():
		return fmt.Errorf("driver: snapshot canon pipeline %q, session %q", snap.Canon, cfg.Canon.String())
	}
	return nil
}

// OpenSessionWithSnapshot is OpenSession resuming from a snapshot: every
// candidate whose body still matches its recorded structural hash adopts
// the snapshot's fingerprint instead of recomputing it, and
// the outcome memo is restored for pairs whose both sides matched. A
// snapshot that fails validation (wrong version, corrupt, or taken under
// a different configuration) is an error — callers typically fall back
// to a cold OpenSession. Functions that drifted are simply re-indexed;
// that is a per-function cost, not an error.
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
	s.buildIndexesFrom(snap)
	return s, nil
}

// buildIndexesFrom is buildIndexes seeded by a validated snapshot.
func (s *Session) buildIndexesFrom(snap *Snapshot) {
	s.initIndexLayers()
	// matched[i] is the live function whose current structural hash
	// equals snap.Funcs[i].Hash, or nil.
	matched := make([]*ir.Function, len(snap.Funcs))
	byName := make(map[string]int, len(snap.Funcs))
	for i := range snap.Funcs {
		byName[snap.Funcs[i].Name] = i
	}
	prior := map[*ir.Function]*fingerprint.Fingerprint{}
	var candidates []*ir.Function
	for _, f := range s.m.Defined() {
		if !s.eligible(f) {
			continue
		}
		candidates = append(candidates, f)
		s.index(f)
		i, ok := byName[f.Name()]
		if !ok {
			continue
		}
		sf := &snap.Funcs[i]
		if search.HashFunction(f) != sf.Hash {
			continue
		}
		fp := &fingerprint.Fingerprint{Blocks: sf.Blocks, Size: sf.Size}
		bad := false
		for j := 0; j+1 < len(sf.Ops); j += 2 {
			op := sf.Ops[j]
			if op < 0 || int(op) >= len(fp.OpCount) {
				bad = true
				break
			}
			fp.OpCount[op] = sf.Ops[j+1]
		}
		if bad {
			continue
		}
		matched[i] = f
		prior[f] = fp
		if s.lens != nil && sf.CanonHash != 0 {
			// The original body is hash-identical to snapshot time, so the
			// recorded canonical hash is still its view's hash: prime it and
			// the warm restart builds zero views up front.
			s.lens.Prime(f, sf.CanonHash)
		}
	}
	s.finder = search.Restore(candidates, s.bodySource(), prior)
	for _, pair := range snap.Outcomes {
		i1, i2 := pair[0], pair[1]
		if i1 < 0 || i1 >= len(matched) || i2 < 0 || i2 >= len(matched) {
			continue
		}
		f1, f2 := matched[i1], matched[i2]
		if f1 == nil || f2 == nil || f1 == f2 {
			continue
		}
		s.outcomes.put(f1, f2)
	}
	s.lastSearch, s.lastCache = search.Stats{}, align.CacheStats{}
}

// SearchStats returns the finder's cumulative accounting since the
// session opened (not the per-run delta a Result reports). Built counts
// fingerprint computations: a session restored from a fully
// matching snapshot reports Built == 0 until something drifts, which is
// how warm restarts are verified to have skipped the index rebuild.
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
