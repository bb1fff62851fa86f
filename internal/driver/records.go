package driver

import (
	"slices"
	"time"

	"repro/internal/align"
	"repro/internal/costmodel"
	"repro/internal/ir"
	"repro/internal/search"
)

// record is what a session knows about one candidate function: the name
// it was indexed under, its size, the facts built from its body on
// first use — the fold hash that buckets duplicates, and, from one walk
// over the body (costmodel.Touch), the sequence the alignment runs on
// and the profile the funnel screens with (the paper's Fig. 16 needs a
// fingerprint to rank a candidate, which is the finder's, a
// linearization to align it and a size to price it) — and its row of
// the outcome memo. The fold hash is built apart: the fold step hashes
// duplicates that it retires before any row reads their sequence.
//
// The memo holds the candidate pairs for which every trial the row ran
// finished unprofitable, or whose bound ruled any profit out. A trial
// is a pure function of the two bodies, the generator options and, for
// a flatten, the families behind them, so while none of these changes
// the pair is skipped on every later run — this is what makes a
// re-optimize after a small delta pay only for the delta. memo lists
// the partners of the directed pairs (fn, partner); back lists the
// records whose rows name this one, so that forget can unlink both
// directions. Trials that error (cancellation, matrix caps) are never
// memoized.
type record struct {
	fn     *ir.Function
	name   string
	size   int
	hash   uint64
	hashed bool
	// seq and prof are the first touch's facts, both set or neither.
	seq  align.Seq
	prof *costmodel.FuncProfile
	memo []*record
	back []*record
}

// memoized reports whether the pair (r, to) is memoized as unprofitable.
func (r *record) memoized(to *record) bool {
	return slices.Contains(r.memo, to)
}

// remember memoizes the pair (r, to), which must not be memoized yet,
// as unprofitable.
func (r *record) remember(to *record) {
	r.memo = append(r.memo, to)
	to.back = append(to.back, r)
}

// forget drops every memoized pair naming r, in either direction: r's
// body changed (reset), or the family r headed broke, and a pair's
// verdict stands only while the bodies and families it was taken
// against do.
func (r *record) forget() {
	for _, to := range r.memo {
		i := slices.Index(to.back, r)
		to.back = slices.Delete(to.back, i, i+1)
	}
	for _, b := range r.back {
		i := slices.Index(b.memo, r)
		b.memo = slices.Delete(b.memo, i, i+1)
	}
	r.memo, r.back = nil, nil
}

// records is a session's one per-function table: a record exists
// exactly while its function is a candidate (which the finder lists
// unless it is a forwarding body, one that may fold but never pair),
// and reset is the one rule by which what it knows dies, its memo pairs
// included: a re-index, an unindex and a commit's retire invalidate the
// memo through it, and a family break drops the pairs naming its head.
// Every sequence is interned by one Interner, so the class IDs of any
// two records are comparable — the precondition of costmodel.Bound.
// Only the session's own calls, which it serializes, touch it — the
// first-touch walk's scratch included.
type records struct {
	of      map[*ir.Function]*record
	in      *align.Interner
	target  costmodel.Target
	scratch costmodel.TouchScratch
	// stats counts sequence requests: Hits served from a record, Misses
	// built; Functions is how many records hold a sequence now.
	stats CacheStats
	// touchTime accumulates the first touches' wall clock.
	touchTime time.Duration
}

func newRecords(target costmodel.Target, n int) *records {
	return &records{of: make(map[*ir.Function]*record, n), in: align.NewInterner(), target: target}
}

// put makes f's record describe f as it is now: indexed under its
// current name, priced at size, nothing built yet.
func (t *records) put(f *ir.Function, size int) {
	r := t.of[f]
	if r == nil {
		r = &record{}
		t.of[f] = r
	}
	t.reset(f)
	r.fn, r.name, r.size = f, f.Name(), size
}

// reset is the one invalidation rule: f's body changed — a commit or a
// fold rewrote it, or the caller edited it — so every fact built from
// the old body goes (the sequence would pin its dead instructions), and
// so does every memoized pair naming f, in either direction. The name
// and size stay until the next sync re-indexes f (put) or drops it.
func (t *records) reset(f *ir.Function) {
	r := t.of[f]
	if r == nil {
		return
	}
	if r.prof != nil {
		t.stats.Functions--
	}
	r.forget()
	*r = record{fn: r.fn, name: r.name, size: r.size}
}

// drop resets f's record and removes it: f has left the index.
func (t *records) drop(f *ir.Function) {
	t.reset(f)
	delete(t.of, f)
}

// sizeOf is f's size: its record's for an indexed f, priced now for any
// other (a family head or member thunk that is not a candidate).
func (t *records) sizeOf(f *ir.Function) int {
	if r := t.of[f]; r != nil {
		return r.size
	}
	return costmodel.FuncBytes(f, t.target)
}

// hash is search.HashFunction of indexed f's body, built on first use.
func (t *records) hash(f *ir.Function) uint64 {
	r := t.of[f]
	if !r.hashed {
		r.hash, r.hashed = search.HashFunction(f), true
	}
	return r.hash
}

// touch builds r's sequence and profile in one walk, unless an earlier
// request did.
func (t *records) touch(r *record) {
	if r.prof != nil {
		return
	}
	t0 := time.Now()
	r.seq, r.prof = costmodel.Touch(r.fn, t.target, t.in, &t.scratch)
	t.touchTime += time.Since(t0)
	t.stats.Misses++
	t.stats.Functions++
}

// seqOf returns r's sequence, building it on first use.
func (t *records) seqOf(r *record) align.Seq {
	if r.prof != nil {
		t.stats.Hits++
	}
	t.touch(r)
	return r.seq
}

// profile returns r's screening profile, building it on first use, so
// every screen of the function shares one profile and its lazily
// settled slack.
func (t *records) profile(r *record) *costmodel.FuncProfile {
	t.touch(r)
	return r.prof
}

// cacheStats is the table's cumulative sequence accounting.
func (t *records) cacheStats() CacheStats {
	st := t.stats
	st.Classes = t.in.NumClasses()
	return st
}

// CacheStats is what a run's sequence requests cost, reported per run.
type CacheStats struct {
	// Hits counts sequence requests served from a function's record and
	// Misses the first touches (a miss linearizes, interns and profiles
	// one function).
	Hits, Misses int64
	// Functions is the number of records holding a sequence.
	Functions int
	// Classes is the number of distinct instruction mergeability
	// classes interned so far.
	Classes int
}
