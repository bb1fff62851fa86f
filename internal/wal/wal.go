// Package wal is the per-session write-ahead journal of the merge
// daemon: a flat file of length-prefixed, CRC-checksummed records, one
// per committed mutation (update/remove/apply/optimize), fsynced
// according to its SyncMode. Recovery loads the last persisted module,
// then replays the journal tail on top of it, truncating at the first
// torn or corrupt record — so a crash at any instant loses at most the
// mutations that were never acknowledged.
//
// # Format
//
// A journal is a sequence of frames:
//
//	[u32le payload length][u32le CRC-32 (IEEE) of payload][payload]
//
// The payload is one JSON-encoded Record. The first record is always
// the begin record {"op":"begin","base":"<hex>"}: Base is the FNV-1a
// hash of the module text this journal replays on top of. Recovery
// compares it against the persisted module — a mismatch means the
// module on disk is newer than the journal (a crash landed between the
// module rename and the journal rotation), in which case every
// journaled record is already reflected in the module and replay is
// skipped entirely.
//
// # Rotation
//
// A successful snapshot makes the journal's records redundant: the
// persisted module already contains them. The snapshot protocol
// therefore ends by rotating the journal — writing a fresh one (begin
// record only, bound to the just-persisted module) to a temp file,
// fsyncing, and renaming it over the old journal. A crash anywhere in
// that sequence leaves either the old journal (skipped via the base
// mismatch) or the new one.
package wal

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/fault"
)

// SyncMode is the journal's fsync policy.
type SyncMode int

const (
	// SyncCommit fsyncs after every appended record: an acknowledged
	// mutation survives any crash. The durable default.
	SyncCommit SyncMode = iota
	// SyncBatch writes records without per-record fsync (the file is
	// still fsynced on rotation and close). An OS crash can lose the
	// unsynced tail; a process crash cannot lose more than the page
	// cache holds. The throughput mode.
	SyncBatch
)

func (m SyncMode) String() string {
	if m == SyncBatch {
		return "batch"
	}
	return "commit"
}

// ParseSyncMode maps the -wal-sync flag values onto a SyncMode.
func ParseSyncMode(s string) (SyncMode, error) {
	switch s {
	case "", "commit":
		return SyncCommit, nil
	case "batch":
		return SyncBatch, nil
	}
	return SyncCommit, fmt.Errorf("wal: unknown sync mode %q (want commit or batch)", s)
}

// Record ops. OpBegin is internal to the format; the rest are the
// daemon's journaled mutations.
const (
	OpBegin    = "begin"
	OpUpdate   = "update"
	OpRemove   = "remove"
	OpBatch    = "batch"
	OpApply    = "apply"
	OpOptimize = "optimize"
)

// Record is one journaled mutation. Exactly the fields for its Op are
// set: Fragment for update, Names for remove, Fragment plus Names
// (the removals) for batch, Plan for apply; optimize carries nothing
// beyond the op itself.
type Record struct {
	Op       string          `json:"op"`
	Base     string          `json:"base,omitempty"` // begin record only: hex module hash
	Fragment string          `json:"fragment,omitempty"`
	Names    []string        `json:"names,omitempty"`
	Plan     json.RawMessage `json:"plan,omitempty"`
}

// MaxRecord caps one record's payload — above the daemon's request
// body cap, so every legitimate record fits, while a corrupt length
// field cannot drive a multi-gigabyte allocation during replay.
const MaxRecord = 128 << 20

const frameHeader = 8 // u32 length + u32 crc

// Hash is FNV-1a 64 over data — the convention journals use to bind
// themselves to a module text (and serve uses to compare).
func Hash(data []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range data {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// Journal is an open journal positioned for appends. Not safe for
// concurrent use; the daemon serializes all operations on a session.
type Journal struct {
	fs   fault.FS
	mode SyncMode
	f    fault.File
	base uint64
}

// Base returns the module hash the journal's begin record is bound to.
func (j *Journal) Base() uint64 { return j.base }

func encodeFrame(rec *Record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	if len(payload) > MaxRecord {
		return nil, fmt.Errorf("wal: record payload %d bytes exceeds MaxRecord", len(payload))
	}
	buf := make([]byte, frameHeader+len(payload))
	binary.LittleEndian.PutUint32(buf[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:], crc32.ChecksumIEEE(payload))
	copy(buf[frameHeader:], payload)
	return buf, nil
}

// Create replaces whatever is at path with a fresh journal bound to
// base: the begin record is written to a temp file, fsynced, renamed
// over path, and the directory is fsynced — so rotation is atomic. The
// returned journal appends to the renamed file (the descriptor follows
// the inode through the rename).
func Create(fsys fault.FS, path string, base uint64, mode SyncMode) (*Journal, error) {
	tmp := path + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	frame, err := encodeFrame(&Record{Op: OpBegin, Base: strconv.FormatUint(base, 16)})
	if err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Write(frame); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return nil, err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return nil, err
	}
	if err := fault.SyncDir(fsys, filepath.Dir(path)); err != nil {
		f.Close()
		return nil, err
	}
	return &Journal{fs: fsys, mode: mode, f: f, base: base}, nil
}

// Append journals one record. In SyncCommit mode the record is fsynced
// before Append returns — the caller may acknowledge the mutation to
// its client afterwards. The frame is issued as a single write, so a
// crash mid-append tears at most this one record, which replay then
// truncates.
func (j *Journal) Append(rec Record) error {
	if rec.Op == OpBegin {
		return fmt.Errorf("wal: cannot append a begin record")
	}
	frame, err := encodeFrame(&rec)
	if err != nil {
		return err
	}
	if _, err := j.f.Write(frame); err != nil {
		return err
	}
	if j.mode == SyncCommit {
		return j.f.Sync()
	}
	return nil
}

// Sync forces buffered records to disk — the batch-mode flush point.
func (j *Journal) Sync() error { return j.f.Sync() }

// Close fsyncs (so batch mode loses nothing on a graceful close) and
// closes the journal file.
func (j *Journal) Close() error {
	if j.f == nil {
		return nil
	}
	serr := j.f.Sync()
	cerr := j.f.Close()
	j.f = nil
	if serr != nil {
		return serr
	}
	return cerr
}

// Replay parses the journal at path: the begin record's base, every
// valid record after it (in order), the byte offset where validity
// ends, and whether a torn/corrupt tail was dropped. Replay never
// fails on corruption — corruption is the expected aftermath of a
// crash — only on the filesystem refusing the read. A file whose begin
// record is itself unreadable yields base 0, no records, torn=true: a
// journal bound to nothing, which the caller rotates away.
func Replay(fsys fault.FS, path string) (base uint64, recs []Record, validLen int64, torn bool, err error) {
	data, err := fsys.ReadFile(path)
	if err != nil {
		return 0, nil, 0, false, err
	}
	off := 0
	first := true
	for {
		if off+frameHeader > len(data) {
			torn = torn || off < len(data)
			break
		}
		n := binary.LittleEndian.Uint32(data[off:])
		sum := binary.LittleEndian.Uint32(data[off+4:])
		if n == 0 || n > MaxRecord || off+frameHeader+int(n) > len(data) {
			torn = true
			break
		}
		payload := data[off+frameHeader : off+frameHeader+int(n)]
		if crc32.ChecksumIEEE(payload) != sum {
			torn = true
			break
		}
		var rec Record
		if json.Unmarshal(payload, &rec) != nil {
			torn = true
			break
		}
		if first {
			if rec.Op != OpBegin {
				return 0, nil, 0, true, nil
			}
			b, perr := strconv.ParseUint(rec.Base, 16, 64)
			if perr != nil {
				return 0, nil, 0, true, nil
			}
			base = b
			first = false
		} else {
			recs = append(recs, rec)
		}
		off += frameHeader + int(n)
	}
	if first {
		// No valid begin record (empty or corrupt-from-the-start file).
		return 0, nil, 0, true, nil
	}
	return base, recs, int64(off), torn, nil
}

// Open opens the journal at path for recovery and append: it replays
// the valid prefix, truncates the file right after the last valid
// record (dropping any torn tail), and returns the journal positioned
// for appends together with the base and the replayed records. A
// missing file surfaces as the filesystem's not-exist error; a journal
// with no usable begin record returns base 0 and no journal — rotate
// it away with Create.
func Open(fsys fault.FS, path string, mode SyncMode) (j *Journal, base uint64, recs []Record, torn bool, err error) {
	base, recs, validLen, torn, err := Replay(fsys, path)
	if err != nil {
		return nil, 0, nil, false, err
	}
	if validLen == 0 {
		return nil, 0, nil, torn, nil
	}
	f, err := fsys.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, 0, nil, torn, err
	}
	if torn {
		if err := f.Truncate(validLen); err != nil {
			f.Close()
			return nil, 0, nil, torn, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, 0, nil, torn, err
		}
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, 0, nil, torn, err
	}
	return &Journal{fs: fsys, mode: mode, f: f, base: base}, base, recs, torn, nil
}
