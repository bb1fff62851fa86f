// The long-lived merge engine. RunContext's one-shot pipeline is a thin
// wrapper over a Session: OpenSession builds every index the pipeline
// needs — the fingerprint candidate finder and the
// linearization/class cache — exactly once, and every run's greedy loop
// reuses them across any number of Optimize / Plan / Apply calls. Callers that mutate or delete functions between runs
// report the delta through Update / Remove; only the touched functions
// are re-fingerprinted and re-linearized, so a re-optimize
// after a small edit pays for the edit, not for the module.
//
// Three index layers persist across runs:
//
//   - the search.Finder (fingerprint ranking or dense index), updated
//     incrementally through its Add/Remove entry points;
//   - the align.Cache of linearizations and interned class vectors,
//     invalidated per function through Invalidate;
//   - the outcome memo: candidate pairs whose trial was unprofitable are
//     remembered (an unprofitable trial is a pure function of the two
//     bodies and the options), so a re-run skips their alignment DP and
//     codegen entirely. Any edit to either function drops the entry.
//
// Runs come in two flavours sharing one loop (runner.go): a committing
// run (Optimize, the classic pipeline) mutates the module, while a dry
// run (Plan) simulates the same greedy loop against tombstone overlays
// and returns a serializable Plan of the merges it would commit. Apply
// replays a (possibly filtered) Plan against the live module through
// the loop's commit-step, verifying each function's structural hash so
// a stale plan is rejected instead of merging the wrong code.
package driver

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/align"
	"repro/internal/canon"
	"repro/internal/costmodel"
	"repro/internal/fingerprint"
	"repro/internal/fmsa"
	"repro/internal/ir"
	"repro/internal/search"
)

// runIDs hands out the process-global monotonic run identifiers carried
// by Progress events, so concurrent runs sharing one observer can be
// told apart at the callback.
var runIDs atomic.Int64

// newRunID returns the next run identifier.
func newRunID() int64 { return runIDs.Add(1) }

// Session is a long-lived merge engine over one module. It is created
// by OpenSession, which builds all candidate and alignment indexes
// once; Optimize, Plan and Apply then run against
// the persistent indexes, and Update / Remove re-index only the
// functions a caller changed. Methods are safe for concurrent use but
// execute one at a time (the session serializes itself); the module
// must not be mutated by the caller while a session method runs.
type Session struct {
	// mu serializes every public method: sessions are safe for
	// concurrent use, but calls execute one at a time.
	mu  sync.Mutex
	m   *ir.Module
	cfg Config

	closed bool

	// Persistent indexes (nil for FMSA sessions, which rebuild their
	// state inside every Optimize because register demotion rewrites
	// the whole module around each run).
	cache  *align.Cache
	finder search.Finder
	cands  *candidateCache
	// lens is the canonical-view layer (nil when Config.Canon is
	// disabled): every discovery index — fingerprints, duplicate-fold
	// hashes — is computed over lens.Body(f) instead of f,
	// while merges and folds still commit against the originals. Views
	// are invalidated whenever the underlying body is.
	lens *canon.Lens
	// hashes memoizes search.HashFunction per original body for the
	// duplicate-fold bucketing; invalidated where the lens's hashes are.
	hashes  hashMemo
	sizes   map[*ir.Function]int
	indexed map[*ir.Function]bool
	byName  map[string]*ir.Function
	// nameOf remembers the name each function was indexed under, so a
	// rename between runs retires the stale byName alias instead of
	// leaving it to misdirect a later Update/Remove.
	nameOf map[*ir.Function]string

	// pending records functions whose index entries are stale: true
	// means "re-evaluate against the current body" (Update, commits),
	// false means "force out of the candidate set" (Remove). The last
	// marking wins; sync applies them at the start of the next run.
	pending map[*ir.Function]bool

	outcomes *outcomeCache

	// funnel is the planning-funnel profile store (funnel.go); nil when
	// Config.NoPlanFunnel disables screening (and always for FMSA,
	// whose sessions carry no persistent indexes at all).
	funnel *funnel

	// families is the merge-family registry behind chain flattening
	// (family.go); nil unless Config.MaxFamily enables tracking. It is
	// session state, not module state: a fresh session over an
	// already-merged module cannot recover the original bodies and
	// therefore nests where this session flattens.
	families *familySet

	// Per-run stat baselines: the finder and cache accumulate across
	// the session's lifetime, so each run reports the delta since the
	// previous one (the first run's delta includes the index build,
	// matching the one-shot pipeline's accounting).
	lastSearch search.Stats
	lastCache  align.CacheStats
}

// OpenSession builds a session over m: all candidate and alignment
// indexes are constructed here, once, and reused by every subsequent
// run. Open itself never mutates the module.
func OpenSession(ctx context.Context, m *ir.Module, cfg Config) (*Session, error) {
	if m == nil {
		return nil, fmt.Errorf("driver: open session on nil module")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s := &Session{m: m, cfg: cfg, pending: map[*ir.Function]bool{}}
	if cfg.Algorithm != FMSA {
		s.buildIndexes()
	}
	return s, nil
}

// eligible reports whether f belongs in the candidate set: defined,
// still in the module under its own name, large enough, and not on the
// skip-hot list — the same filter the one-shot pipeline applies.
func (s *Session) eligible(f *ir.Function) bool {
	if f == nil || f.IsDecl() || s.m.FuncByName(f.Name()) != f {
		return false
	}
	return f.NumInstrs() >= s.cfg.MinInstrs && !s.cfg.SkipHot[f.Name()]
}

// initIndexLayers constructs the empty persistent index layers shared by
// the cold build and the snapshot warm restart: the align cache, the
// canonical-view lens (wired to drop a discarded view's cache entry),
// the membership/size maps, the outcome memo and the candidate-list
// cache.
func (s *Session) initIndexLayers() {
	s.cache = align.NewCache()
	s.lens = canon.NewLens(s.cfg.Canon, search.HashFunction)
	if s.lens != nil {
		cache := s.cache
		s.lens.DropHook = func(view *ir.Function) { cache.Invalidate(view) }
	}
	s.hashes = hashMemo{}
	s.sizes = map[*ir.Function]int{}
	s.indexed = map[*ir.Function]bool{}
	s.byName = map[string]*ir.Function{}
	s.nameOf = map[*ir.Function]string{}
	s.outcomes = newOutcomeCache()
	if !s.cfg.NoPlanFunnel {
		s.funnel = newFunnel(s.cfg.Target, s.cache)
	}
	s.cands = newCandidateCache(s.cfg.Threshold, s.cacheFP)
	if s.cfg.MaxFamily >= 3 {
		s.families = newFamilySet()
	}
}

// cacheFP is the candidate cache's fingerprint function: a copy of the
// fingerprint the finder ranks f by, so the cache's radius checks live in
// the space of the finder's lists without fingerprinting f a second
// time. A function the finder does not index is fingerprinted the way
// the finder would: through the lens under canon.
func (s *Session) cacheFP(f *ir.Function) *fingerprint.Fingerprint {
	if s.finder != nil {
		if fp, ok := s.finder.Fingerprint(f); ok {
			return &fp
		}
	}
	if s.lens != nil {
		return fingerprint.New(s.lens.Body(f))
	}
	return fingerprint.New(f)
}

// bodySource adapts the lens to search.BodySource, avoiding the typed
// nil-interface trap when canon is off.
func (s *Session) bodySource() search.BodySource {
	if s.lens == nil {
		return nil
	}
	return s.lens
}

// buildIndexes constructs the persistent index layers from scratch.
func (s *Session) buildIndexes() {
	s.initIndexLayers()
	var candidates []*ir.Function
	for _, f := range s.m.Defined() {
		if !s.eligible(f) {
			continue
		}
		candidates = append(candidates, f)
		s.index(f)
	}
	s.finder = search.NewIndexed(s.cfg.Finder, candidates, s.bodySource())
	s.lastSearch, s.lastCache = search.Stats{}, align.CacheStats{}
}

// markPending schedules f for re-indexing at the next sync. Every
// function a run rewrites, adds or removes passes through here, which
// is how the run's reference index (family.go) follows its mutations.
func (s *Session) markPending(f *ir.Function) {
	s.pending[f] = true
	s.families.touch(s.m, f)
}

// hashMemo memoizes search.HashFunction; the nil memo (FMSA) does not.
type hashMemo map[*ir.Function]uint64

func (h hashMemo) of(f *ir.Function) uint64 {
	v, ok := h[f]
	if !ok {
		v = search.HashFunction(f)
		if h != nil {
			h[f] = v
		}
	}
	return v
}

// index records f in the session's membership, name and size maps
// under its current name, retiring any stale alias a rename left
// behind. The finder and the candidate cache are updated by the caller
// (bulk at Open, incrementally at sync).
func (s *Session) index(f *ir.Function) {
	if prev, ok := s.nameOf[f]; ok && prev != f.Name() && s.byName[prev] == f {
		delete(s.byName, prev)
	}
	s.indexed[f] = true
	s.byName[f.Name()] = f
	s.nameOf[f] = f.Name()
	s.sizes[f] = costmodel.FuncBytes(f, s.cfg.Target)
}

// unindex drops f from every persistent index layer. The byName alias
// is removed under the name f was indexed as, which survives renames.
func (s *Session) unindex(f *ir.Function) {
	s.outcomes.invalidate(f)
	s.cache.Invalidate(f)
	s.lens.Invalidate(f)
	delete(s.hashes, f)
	s.funnel.invalidate(f)
	s.families.drop(f)
	if s.indexed[f] {
		s.finder.Remove(f)
		delete(s.indexed, f)
		delete(s.sizes, f)
		if prev, ok := s.nameOf[f]; ok && s.byName[prev] == f {
			delete(s.byName, prev)
		}
	}
	delete(s.nameOf, f)
}

// sync applies the pending index updates: each marked function is
// re-fingerprinted and re-linearized (or dropped), its
// memoized trial outcomes are discarded, and the candidate-list cache
// reconciles against the delta. After sync the indexes are exactly what
// OpenSession would build from the module's current state.
func (s *Session) sync() {
	if s.finder == nil || len(s.pending) == 0 {
		s.pending = map[*ir.Function]bool{}
		return
	}
	// Collect the touched names (current and indexed-as) before the
	// loop below rewrites the alias maps: pruneFamilies revalidates
	// every family they reach.
	touched := make(map[string]bool, len(s.pending))
	renamed := false
	for f := range s.pending {
		if prev, ok := s.nameOf[f]; ok {
			touched[prev] = true
			renamed = renamed || prev != f.Name()
		}
		touched[f.Name()] = true
	}
	if renamed {
		// Hashes name callees by symbol: a rename reaches every caller's.
		clear(s.hashes)
		s.lens.ForgetHashes()
	}
	var changed, removed []*ir.Function
	for f, reindex := range s.pending {
		if !reindex || !s.eligible(f) {
			removed = append(removed, f)
			s.unindex(f)
			continue
		}
		// Candidate lists tie-break equal distances by name, so a
		// renamed function can move lists even with an unchanged
		// fingerprint: route it through the removed set too, which
		// disables applyDelta's unchanged-fingerprint shortcut for it.
		if prev, ok := s.nameOf[f]; ok && prev != f.Name() {
			removed = append(removed, f)
		}
		s.outcomes.invalidate(f)
		s.cache.Invalidate(f)
		s.funnel.invalidate(f)
		// The view must be dropped before the finder re-indexes: the
		// finder fingerprints through the lens, so a stale view
		// here would silently re-index the pre-edit body.
		s.lens.Invalidate(f)
		delete(s.hashes, f)
		s.index(f)
		changed = append(changed, f)
	}
	// One finder pass for the whole delta: a batch-aware finder
	// re-indexes every changed function under a single rebuild window
	// (one lock acquisition, one sort of the cells it touched and of the
	// slab) instead of paying a per-function sorted insertion n times.
	// Results are identical to sequential Adds; only the work is batched.
	if bi, ok := s.finder.(search.BatchIndexer); ok && len(changed) > 1 {
		bi.AddBatch(changed)
	} else {
		for _, f := range changed {
			s.finder.Add(f)
		}
	}
	// applyDelta compares each delta function's new fingerprint, a copy
	// of what the finder just indexed, with the copy it held before.
	s.cands.applyDelta(changed, removed)
	s.pruneFamilies(touched)
	s.pending = map[*ir.Function]bool{}
}

// pruneFamilies revalidates every family a just-synced change touches
// (by head or member name): a broken family is dropped and the
// memoized trial outcomes of its head forgotten. A flatten trial's
// profit depends on the family registry, not just the two bodies, so a
// head's unprofitable-pair memo entries must not outlive the family
// they were recorded against — otherwise a later (possibly profitable)
// pairwise nest of the same pair would be suppressed forever. Families
// that still validate — including ones a commit just recorded, whose
// members are pending as freshly rewritten thunks — are untouched.
func (s *Session) pruneFamilies(touched map[string]bool) {
	if s.families == nil {
		return
	}
	for head, fam := range s.families.byHead {
		relevant := touched[head.Name()]
		for _, mb := range fam.members {
			if relevant {
				break
			}
			relevant = touched[mb.name]
		}
		if relevant && s.families.validMembers(s.m, head) == nil {
			s.outcomes.invalidate(head)
		}
	}
}

// candidateOrder returns the current candidate set in module definition
// order — the order the duplicate-folding families are formed in, kept
// identical to the one-shot pipeline's.
func (s *Session) candidateOrder() []*ir.Function {
	var out []*ir.Function
	for _, f := range s.m.Defined() {
		if s.indexed[f] {
			out = append(out, f)
		}
	}
	return out
}

// errClosed is returned by every method of a closed session.
var errClosed = fmt.Errorf("driver: session is closed")

// ErrUnknownFunction is wrapped by Update and Remove when a name
// resolves to neither a function in the module nor an indexed
// candidate: the caller's view of the module has diverged from the
// session's, which a merge service must surface, not swallow.
var ErrUnknownFunction = fmt.Errorf("unknown function")

// ErrStalePlan is wrapped by Apply when a plan's structural hashes no
// longer match the module — the code changed between Plan and Apply.
// It is the optimistic-concurrency signal: a service maps it to a
// conflict response and the client replans against the current module.
var ErrStalePlan = fmt.Errorf("plan is stale")

// Close releases the session's indexes. Further method calls fail; the
// module itself is untouched and keeps every committed merge.
func (s *Session) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	s.cache = nil
	s.finder = nil
	s.cands = nil
	s.lens = nil
	s.hashes = nil
	s.sizes = nil
	s.indexed = nil
	s.byName = nil
	s.nameOf = nil
	s.pending = nil
	s.outcomes = nil
	s.funnel = nil
	s.families = nil
	return nil
}

// Update re-indexes the named functions after the caller mutated them
// (or added them to the module). A name that is in the module but no
// longer defined (a declaration) is treated as a removal. A name that
// resolves to neither a module function nor an indexed candidate is an
// error wrapping ErrUnknownFunction — the caller's edit log references
// a function the session cannot see, which means the two views have
// diverged. The whole call is validated before anything is marked, so
// on error no name took effect.
func (s *Session) Update(ctx context.Context, changed ...string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errClosed
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, name := range changed {
		if s.m.FuncByName(name) == nil && s.byName[name] == nil {
			return fmt.Errorf("driver: Update(%q): %w", name, ErrUnknownFunction)
		}
	}
	for _, name := range changed {
		if f := s.m.FuncByName(name); f != nil {
			// The session knows a different object under this name: the
			// caller either replaced the function (remove + add — the old
			// object must leave the index or later runs would merge its
			// dead body) or renamed it and reused the name. Mark the old
			// object for re-evaluation; sync's eligibility check keeps a
			// live renamed function (under its new name) and unindexes a
			// detached one. An explicit earlier Remove mark is respected.
			if old := s.byName[name]; old != nil && old != f {
				if _, seen := s.pending[old]; !seen {
					s.pending[old] = true
				}
			}
			s.pending[f] = true
			continue
		}
		if f := s.byName[name]; f != nil {
			s.pending[f] = false
		}
	}
	return nil
}

// Remove drops the named functions from the candidate set, typically
// after the caller deleted them from the module. A function that is
// still defined simply stops being considered until a later Update
// re-admits it. A name that resolves to neither an indexed candidate
// nor a module function is an error wrapping ErrUnknownFunction; the
// whole call is validated before anything is marked, so on error no
// name took effect.
func (s *Session) Remove(ctx context.Context, names ...string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errClosed
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, name := range names {
		if s.byName[name] == nil && s.m.FuncByName(name) == nil {
			return fmt.Errorf("driver: Remove(%q): %w", name, ErrUnknownFunction)
		}
	}
	for _, name := range names {
		f := s.byName[name]
		if f == nil {
			f = s.m.FuncByName(name)
		}
		if f != nil {
			s.pending[f] = false
		}
	}
	return nil
}

// ErrConflictingDelta is wrapped by UpdateBatch when one batch asks to
// both update and remove the same name. Sequential Update-then-Remove
// calls have a well-defined outcome (last mark wins), but inside a
// single batch the order is meaningless — the conflict means the
// caller's edit log is incoherent, which a merge service must surface,
// not arbitrate. Test with errors.Is.
var ErrConflictingDelta = fmt.Errorf("conflicting delta")

// UpdateBatch marks n updates and m removals as one delta. Semantically
// it is Update(changed...) followed by Remove(removed...) — same
// validation, same ErrUnknownFunction on a diverged name — with two
// differences: a name in both sets fails with an error wrapping
// ErrConflictingDelta, and the whole batch is validated before any name
// takes effect. All marks then share the next sync's single re-index
// window: one batched finder rebuild pass, one candidate-cache radius
// invalidation sweep, one lens invalidation set, no matter how many
// deltas the batch carried. That window is what makes streaming a
// 100k-function corpus into a session linear instead of quadratic.
func (s *Session) UpdateBatch(ctx context.Context, changed, removed []string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errClosed
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	rm := make(map[string]bool, len(removed))
	for _, name := range removed {
		rm[name] = true
	}
	for _, name := range changed {
		if rm[name] {
			return fmt.Errorf("driver: UpdateBatch(%q): update and remove in one batch: %w", name, ErrConflictingDelta)
		}
		if s.m.FuncByName(name) == nil && s.byName[name] == nil {
			return fmt.Errorf("driver: UpdateBatch(%q): %w", name, ErrUnknownFunction)
		}
	}
	for _, name := range removed {
		if s.byName[name] == nil && s.m.FuncByName(name) == nil {
			return fmt.Errorf("driver: UpdateBatch(remove %q): %w", name, ErrUnknownFunction)
		}
	}
	for _, name := range changed {
		if f := s.m.FuncByName(name); f != nil {
			// Same rename/replace routing as Update: see the comment there.
			if old := s.byName[name]; old != nil && old != f {
				if _, seen := s.pending[old]; !seen {
					s.pending[old] = true
				}
			}
			s.pending[f] = true
			continue
		}
		if f := s.byName[name]; f != nil {
			s.pending[f] = false
		}
	}
	for _, name := range removed {
		f := s.byName[name]
		if f == nil {
			f = s.m.FuncByName(name)
		}
		if f != nil {
			s.pending[f] = false
		}
	}
	return nil
}

// Flush applies the pending index maintenance now instead of at the
// next Optimize/Plan/Apply: every function marked by Update, Remove or
// UpdateBatch since the last sync is re-fingerprinted and
// re-linearized (or dropped) in one batched pass. Flush changes when
// the work happens, never its outcome — callers that prefer paying
// re-index cost at update time (a serving daemon smoothing query
// latency, a benchmark attributing phases) call it; everyone else lets
// the next run absorb the same single window.
func (s *Session) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errClosed
	}
	s.sync()
	return nil
}

// newResult scaffolds a run result with the module's baseline size.
func (s *Session) newResult() *Result {
	return &Result{Algorithm: s.cfg.Algorithm, Threshold: s.cfg.Threshold, BaselineBytes: s.moduleBytes()}
}

// newRunner binds one run's loop to the session's index layers. Dry
// runs add their overlays; FMSA runs swap in their throwaway indexes.
func (s *Session) newRunner(res *Result, commitMode bool) *runner {
	return &runner{
		m: s.m, cfg: s.cfg, cache: s.cache, finder: s.finder,
		cands: s.cands, lens: s.lens, hashes: s.hashes, sizes: s.sizes, outcomes: s.outcomes,
		funnel: s.funnel, families: s.families, commitMode: commitMode,
		runID: newRunID(), res: res, progress: s.cfg.progressFn(),
		markPending: s.markPending,
		consumed:    map[*ir.Function]bool{},
	}
}

// moduleBytes is costmodel.ModuleBytes off the maintained sizes:
// sizes[f] is current for every indexed function without a pending
// mark, so only the rest — what the delta or the run touched, and
// whatever is not a candidate — is priced again.
func (s *Session) moduleBytes() int {
	n := 0
	for _, f := range s.m.Funcs {
		if _, stale := s.pending[f]; s.indexed[f] && !stale {
			n += s.sizes[f]
		} else {
			n += costmodel.FuncBytes(f, s.cfg.Target)
		}
	}
	return n
}

// finishStats folds the per-run finder/cache deltas into res and moves
// the session baselines forward. Every run that got as far as its walk
// ends here, and its reference index (family.go) with it.
func (s *Session) finishStats(res *Result) {
	if s.families != nil {
		s.families.refs = nil
	}
	cur := s.finder.Stats()
	res.Search = search.Stats{
		Queries:   cur.Queries - s.lastSearch.Queries,
		Scanned:   cur.Scanned - s.lastSearch.Scanned,
		Probed:    cur.Probed - s.lastSearch.Probed,
		QueryTime: cur.QueryTime - s.lastSearch.QueryTime,
		Indexed:   cur.Indexed,
	}
	s.lastSearch = cur
	cc := s.cache.Stats()
	res.AlignCache = align.CacheStats{
		Hits:      cc.Hits - s.lastCache.Hits,
		Misses:    cc.Misses - s.lastCache.Misses,
		Functions: cc.Functions,
		Classes:   cc.Classes,
	}
	s.lastCache = cc
}

// Optimize runs the greedy loop against the persistent indexes,
// mutating the module in place exactly like the one-shot RunContext. On cancellation it stops between trials, leaves
// every already-committed merge in place, and returns the partial
// result together with ctx.Err().
func (s *Session) Optimize(ctx context.Context) (*Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errClosed
	}
	start := time.Now()
	if s.cfg.Algorithm == FMSA {
		return s.optimizeFMSA(ctx, start)
	}
	res := s.newResult()
	if err := ctx.Err(); err != nil {
		res.FinalBytes = res.BaselineBytes
		res.TotalTime = time.Since(start)
		return res, err
	}
	s.sync()
	runErr := s.newRunner(res, true).walk(ctx, s.candidateOrder())
	s.finishStats(res)
	s.finishFamilies(res)
	res.FinalBytes = s.moduleBytes()
	res.TotalTime = time.Since(start)
	return res, runErr
}

// finishFamilies reports the family registry's post-run state.
func (s *Session) finishFamilies(res *Result) {
	if s.families == nil {
		return
	}
	res.FamilySizes = s.families.sizes()
	for _, n := range res.FamilySizes {
		res.Families += n
	}
}

// optimizeFMSA is the FMSA run: register demotion rewrites every
// candidate before merging and register promotion rewrites them back
// afterwards, so no index survives the run — the session builds
// throwaway indexes over the demoted module, exactly like the one-shot
// pipeline, and keeps none of them.
func (s *Session) optimizeFMSA(ctx context.Context, start time.Time) (*Result, error) {
	// FMSA carries no persistent indexes, so pending marks from
	// Update/Remove have nothing to reconcile against — drop them, or
	// they would accumulate and pin deleted function bodies for the
	// session's lifetime.
	s.pending = map[*ir.Function]bool{}
	res := s.newResult()
	// Refuse to start under a dead context: the demote/clean-up round
	// trip leaves permanent residue, so a cancelled-before-start run
	// must be a true no-op on the module.
	if err := ctx.Err(); err != nil {
		res.FinalBytes = res.BaselineBytes
		res.TotalTime = time.Since(start)
		return res, err
	}
	// The cost model must price the originals at their *final*
	// (promoted) size — unmerged functions are promoted back during
	// clean-up — so record sizes before any demotion.
	preSize := map[*ir.Function]int{}
	for _, f := range s.m.Defined() {
		preSize[f] = costmodel.FuncBytes(f, s.cfg.Target)
	}
	fmsa.PrepareModule(s.m)
	var candidates []*ir.Function
	for _, f := range s.m.Defined() {
		if f.NumInstrs() < s.cfg.MinInstrs || s.cfg.SkipHot[f.Name()] {
			continue
		}
		candidates = append(candidates, f)
	}
	cache := align.NewCache()
	finder := search.New(s.cfg.Finder, candidates)
	r := s.newRunner(res, true)
	r.cache, r.finder, r.sizes, r.markPending = cache, finder, preSize, nil
	runErr := r.walk(ctx, candidates)
	// Clean-up (Figure 1): re-promote and simplify every demoted
	// function; whatever cannot be promoted back is the residue.
	// Clean-up runs even on cancellation so the module stays consistent.
	fmsa.CleanupModule(s.m)
	res.Search = finder.Stats()
	res.AlignCache = cache.Stats()
	res.FinalBytes = costmodel.ModuleBytes(s.m, s.cfg.Target)
	res.TotalTime = time.Since(start)
	return res, runErr
}

// Plan is the dry run: the same greedy loop as Optimize, at the same
// parallelism, simulated against tombstone overlays so the module is
// not touched, returning the serializable Plan of merges (and duplicate
// folds) a commit run would apply. Plans embed each function's
// structural hash; Apply verifies them, so a plan can be shipped across
// a process boundary and applied later — or filtered first.
func (s *Session) Plan(ctx context.Context) (*Plan, error) {
	p, _, err := s.PlanReport(ctx)
	return p, err
}

// PlanReport is Plan with the dry run's accounting: the Result carries
// the loop's counters (attempts, memo hits, funnel screens and aborts)
// and timings, with FinalBytes equal to BaselineBytes since a dry run
// never mutates the module.
func (s *Session) PlanReport(ctx context.Context) (*Plan, *Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, nil, errClosed
	}
	if s.cfg.Algorithm == FMSA {
		return nil, nil, fmt.Errorf("driver: Plan requires a SalSSA variant; FMSA merges need whole-module register demotion (use Optimize)")
	}
	start := time.Now()
	res := s.newResult()
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	s.sync()
	r := s.newRunner(res, false)
	r.plan = &Plan{Algorithm: s.cfg.Algorithm.String(), Threshold: s.cfg.Threshold, RunID: r.runID}
	r.tomb, r.claimed = map[*ir.Function]bool{}, map[string]bool{}
	runErr := r.walk(ctx, s.candidateOrder())
	s.finishStats(res)
	res.FinalBytes = res.BaselineBytes
	res.TotalTime = time.Since(start)
	if runErr != nil {
		return nil, nil, runErr
	}
	return r.plan, res, nil
}

// Apply commits a plan — typically one returned by Plan, possibly with
// entries filtered out by the caller — against the live module. Every
// referenced function is verified against the plan's structural hash
// first: if the module changed underneath the plan, Apply fails with an
// error naming the stale function instead of merging the wrong code.
// Merges are re-generated from the current bodies (hash equality makes
// this reproduce the planned merge) and committed unconditionally, in
// plan order. The merged-function name is re-derived against the live
// module, so it matches the plan's Merged name unless the module
// gained a colliding name since planning — the Result records the name
// actually used. On failure or cancellation the already-committed
// prefix stays in place, mirroring Optimize's cancellation contract.
func (s *Session) Apply(ctx context.Context, p *Plan) (*Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errClosed
	}
	if s.cfg.Algorithm == FMSA {
		return nil, fmt.Errorf("driver: Apply requires a SalSSA variant")
	}
	if p == nil {
		return nil, fmt.Errorf("driver: Apply on nil plan")
	}
	if p.Algorithm != "" && p.Algorithm != s.cfg.Algorithm.String() {
		return nil, fmt.Errorf("driver: plan was produced for %s, session runs %s", p.Algorithm, s.cfg.Algorithm)
	}
	start := time.Now()
	res := s.newResult()
	if err := ctx.Err(); err != nil {
		res.FinalBytes = res.BaselineBytes
		res.TotalTime = time.Since(start)
		return res, err
	}
	s.sync()
	// Apply commits what it is given: the filter already had its say
	// when the plan was drawn up.
	r := s.newRunner(res, true)
	r.cfg.CommitFilter = nil
	finish := func(err error) (*Result, error) {
		s.finishStats(res)
		s.finishFamilies(res)
		res.FinalBytes = s.moduleBytes()
		res.TotalTime = time.Since(start)
		return res, err
	}
	consumed := map[string]bool{}
	stale := func(name string, want uint64) error {
		f := s.m.FuncByName(name)
		if f == nil {
			return fmt.Errorf("driver: %w: function @%s is gone", ErrStalePlan, name)
		}
		if search.HashFunction(f) != want {
			return fmt.Errorf("driver: %w: @%s changed since planning", ErrStalePlan, name)
		}
		return nil
	}
	for _, pf := range p.Folds {
		if pf.Dup == pf.Rep {
			return finish(fmt.Errorf("driver: plan folds @%s into itself", pf.Dup))
		}
		if consumed[pf.Dup] || consumed[pf.Rep] {
			return finish(fmt.Errorf("driver: plan folds @%s twice", pf.Dup))
		}
		if err := stale(pf.Dup, pf.DupHash); err != nil {
			return finish(err)
		}
		if err := stale(pf.Rep, pf.RepHash); err != nil {
			return finish(err)
		}
		dup, rep := s.m.FuncByName(pf.Dup), s.m.FuncByName(pf.Rep)
		search.BuildForwarder(dup, rep)
		r.retire(dup)
		consumed[pf.Dup] = true
		res.Folds = append(res.Folds, FoldRecord{Dup: pf.Dup, Rep: pf.Rep, Profit: pf.Profit})
	}
	for _, pm := range p.Merges {
		if err := ctx.Err(); err != nil {
			return finish(err)
		}
		if pm.F1 == pm.F2 {
			return finish(fmt.Errorf("driver: plan merges @%s with itself", pm.F1))
		}
		if consumed[pm.F1] || consumed[pm.F2] {
			return finish(fmt.Errorf("driver: plan consumes @%s or @%s twice", pm.F1, pm.F2))
		}
		if err := stale(pm.F1, pm.Hash1); err != nil {
			return finish(err)
		}
		if err := stale(pm.F2, pm.Hash2); err != nil {
			return finish(err)
		}
		f1, f2 := s.m.FuncByName(pm.F1), s.m.FuncByName(pm.F2)
		if _, ok := s.sizes[f1]; !ok {
			s.sizes[f1] = costmodel.FuncBytes(f1, s.cfg.Target)
		}
		if _, ok := s.sizes[f2]; !ok {
			s.sizes[f2] = costmodel.FuncBytes(f2, s.cfg.Target)
		}
		var t *trial
		if len(pm.Family) > 0 {
			// A planned flattening: re-derive it from the live family
			// registry and insist on the same member list — the plan
			// carries only names, the original bodies live in this
			// session's registry.
			fp := flattenFor(s.m, s.families, s.cfg.MaxFamily, f1, f2, nil)
			if fp == nil || !sameNames(fp.names, pm.Family) {
				return finish(fmt.Errorf("driver: %w: family behind @%s + @%s no longer matches %v", ErrStalePlan, pm.F1, pm.F2, pm.Family))
			}
			t = r.flattenTrial(ctx, fp, f1, f2)
		} else {
			// Apply commits planned merges unconditionally, so there is
			// no gate to screen against — every trial materializes.
			t = r.pairTrial(ctx, f1, f2, noGate)
		}
		res.add(t.counters())
		if t.err != nil {
			return finish(fmt.Errorf("driver: applying @%s + @%s: %w", pm.F1, pm.F2, t.err))
		}
		r.commitStep(t)
		// The rewritten member thunks of a flatten leave with the pair.
		for _, name := range append([]string{pm.F1, pm.F2}, pm.Family...) {
			consumed[name] = true
		}
	}
	return finish(nil)
}
