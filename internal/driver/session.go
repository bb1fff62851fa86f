// The long-lived merge engine. RunContext's one-shot pipeline is a thin
// wrapper over a Session: OpenSession builds every index the pipeline
// needs — the fingerprint candidate finder and one record per candidate
// — exactly once, and every run's greedy loop reuses them across any
// number of Optimize / Plan / Apply calls. Callers that mutate or delete
// functions between runs report the delta through Update / Remove; only
// the touched functions are re-fingerprinted and re-linearized, so a
// re-optimize after a small edit pays for the edit, not for the module.
//
// Two index layers persist across runs:
//
//   - the search.Finder (the dense fingerprint index) of every candidate
//     but a forwarding body, updated through Add/AddBatch/Remove;
//   - the records (records.go): per candidate its name, its size,
//     its row of the outcome memo and, built on first use, its fold
//     hash, alignment sequence and screening profile. The memo remembers
//     the candidate pairs whose trial was unprofitable (an unprofitable
//     trial is a pure function of the two bodies and the options), so a
//     re-run skips their alignment DP and codegen entirely. A record
//     exists exactly while its function is a candidate, and resetting it
//     is the one way what it knows dies: any edit to either function of a
//     memoized pair drops the pair.
//
// Runs come in two flavours sharing one loop (runner.go): a committing
// run (Optimize, the classic pipeline) mutates the module, while a dry
// run (Plan) runs the same greedy loop, retiring what it consumes from
// the finder as a commit does and giving it all back when the walk
// returns — every trial built in place and discarded, so the module
// comes back as found — and returns a serializable Plan of the merges
// it would commit. Apply replays a (possibly filtered) Plan against the
// live module through the loop's commit-step, verifying each function's
// structural hash so a stale plan is rejected instead of merging the
// wrong code.
package driver

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/costmodel"
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
// execute one at a time (the session serializes itself). While a
// session method runs, the caller must not access the module at all,
// not even read it: every run, Plan included, builds its trial bodies
// in the module and takes them out again.
type Session struct {
	// mu serializes every public method: sessions are safe for
	// concurrent use, but calls execute one at a time.
	mu  sync.Mutex
	m   *ir.Module
	cfg Config

	closed bool

	// Persistent indexes (nil for FMSA sessions, which build their
	// state inside every Optimize and drop it afterwards because register
	// demotion rewrites the whole module around each run).
	finder search.Finder
	recs   *records
	// byName resolves the names functions were indexed under (a
	// record's name), so a rename between runs retires the stale alias
	// instead of leaving it to misdirect a later Update/Remove.
	byName map[string]*ir.Function
	// seen and byName together hold the name of every function the
	// session has seen defined: at Open, in a run (everything a run
	// adds, rewrites or removes passes markPending) and through Update
	// and Remove. seen holds those byName does not resolve, so an
	// indexed name joins it only when unindexed. Remove accepts a name
	// in it whose function is gone as a no-op.
	seen map[string]bool

	// pending records functions whose index entries are stale: true
	// means "re-evaluate against the current body" (Update, commits),
	// false means "force out of the candidate set" (Remove). The last
	// marking wins; sync applies them at the start of the next run.
	pending map[*ir.Function]bool

	// families is the merge-family registry behind chain flattening
	// (family.go); nil unless Config.MaxFamily enables tracking. It is
	// session state, not module state: a fresh session over an
	// already-merged module cannot recover the original bodies and
	// therefore nests where this session flattens.
	families *familySet

	// Per-run stat baselines: the finder and the records accumulate
	// across the session's lifetime, so each run reports the delta since
	// the previous one (the first run's delta includes the index build,
	// matching the one-shot pipeline's accounting).
	lastSearch search.Stats
	lastCache  CacheStats
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
	s := &Session{m: m, cfg: cfg, pending: map[*ir.Function]bool{}, seen: map[string]bool{}}
	if cfg.Algorithm != FMSA {
		s.buildIndexes()
	}
	s.noteDefined()
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

// buildIndexes constructs the persistent index layers from the module:
// the finder, the records and the family registry.
func (s *Session) buildIndexes() {
	defined := s.m.Defined()
	s.recs = newRecords(s.cfg.Target, len(defined))
	s.byName = make(map[string]*ir.Function, len(defined))
	if s.cfg.MaxFamily >= 3 {
		s.families = newFamilySet()
	}
	var candidates []*ir.Function
	for _, f := range defined {
		if !s.eligible(f) {
			continue
		}
		candidates = append(candidates, f)
		s.index(f)
	}
	s.finder = search.New(search.KindLSH, candidates)
}

// markPending schedules f for re-indexing at the next sync. Every
// function a run rewrites, adds or removes passes through here, which
// is how the run's reference index (family.go) follows its mutations.
func (s *Session) markPending(f *ir.Function) {
	s.pending[f] = true
	s.saw(f.Name(), f)
	s.families.touch(s.m, f)
}

// index gives f a record of its current body under its current name,
// retiring any stale alias a rename left behind. The finder is updated
// by the caller (bulk at Open, incrementally at sync).
func (s *Session) index(f *ir.Function) {
	if r := s.recs.of[f]; r != nil && r.name != f.Name() && s.byName[r.name] == f {
		delete(s.byName, r.name)
	}
	s.recs.put(f, costmodel.FuncBytes(f, s.cfg.Target))
	s.byName[f.Name()] = f
}

// unindex drops f from every persistent index layer. The byName alias
// is removed under the name f was indexed as, which survives renames,
// and that name joins seen.
func (s *Session) unindex(f *ir.Function) {
	s.families.drop(f)
	if r := s.recs.of[f]; r != nil {
		s.finder.Remove(f)
		if s.byName[r.name] == f {
			delete(s.byName, r.name)
			s.seen[r.name] = true
		}
		s.recs.drop(f)
	}
}

// noteDefined records every function the module defines as seen.
func (s *Session) noteDefined() {
	for _, f := range s.m.Funcs {
		if !f.IsDecl() {
			s.saw(f.Name(), f)
		}
	}
}

// saw records that the session has seen f defined under name: in seen,
// unless byName already resolves name to f.
func (s *Session) saw(name string, f *ir.Function) {
	if s.byName[name] != f {
		s.seen[name] = true
	}
}

// sync applies the pending index updates: each marked function is
// re-fingerprinted and re-linearized (or dropped), and its record's
// reset discards its memoized trial outcomes. After sync the indexes are exactly what
// OpenSession would build from the module's current state, so every
// finder query of the next run answers what a fresh index over the
// current candidates would.
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
		if r := s.recs.of[f]; r != nil {
			touched[r.name] = true
			renamed = renamed || r.name != f.Name()
		}
		touched[f.Name()] = true
	}
	if renamed {
		// Hashes name callees by symbol: a rename reaches every caller's.
		for _, r := range s.recs.of {
			r.hashed = false
		}
	}
	var changed []*ir.Function
	for f, reindex := range s.pending {
		if !reindex || !s.eligible(f) {
			s.unindex(f)
			continue
		}
		s.index(f)
		changed = append(changed, f)
	}
	// One finder pass for the whole delta: the index re-indexes every
	// changed function under a single rebuild window (one lock
	// acquisition, one sort of the cells it touched and of the slab)
	// instead of paying a per-function sorted insertion n times. Results
	// are identical to sequential Adds; only the work is batched.
	s.finder.AddBatch(changed)
	s.pruneFamilies(touched)
	s.pending = map[*ir.Function]bool{}
}

// pruneFamilies revalidates every family a just-synced change touches
// (by head or member name): a broken family is dropped and every memo
// pair naming its head is forgotten (record.forget, as reset does). A
// trial with a head on either side ran against the family registry —
// as a flatten, or as a nest where flattenFor declined — so its verdict
// must not outlive the family it was taken against: the pair may
// flatten, or nest profitably, now. Families that
// still validate — including ones a commit just recorded, whose members
// are pending as freshly rewritten thunks — are untouched.
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
			if r := s.recs.of[head]; r != nil {
				r.forget()
			}
		}
	}
}

// candidateOrder returns the current candidate set in module definition
// order — the order the duplicate-folding families are formed in, kept
// identical to the one-shot pipeline's.
func (s *Session) candidateOrder() []*ir.Function {
	var out []*ir.Function
	for _, f := range s.m.Defined() {
		if s.recs.of[f] != nil {
			out = append(out, f)
		}
	}
	return out
}

// errClosed is returned by every method of a closed session.
var errClosed = fmt.Errorf("driver: session is closed")

// ErrUnknownFunction is wrapped by Update when a name resolves to
// neither a function in the module nor an indexed candidate, and by
// Remove when the session has never seen the name defined: the caller's
// view of the module has diverged from the session's, which a merge
// service must surface, not swallow.
var ErrUnknownFunction = fmt.Errorf("unknown function")

// ErrStalePlan is wrapped by Apply when a plan's structural hashes no
// longer match the module — the code changed between Plan and Apply —
// or the plan is otherwise one it cannot commit in full (checkPlan).
// It is the optimistic-concurrency signal: a service maps it to a
// conflict response and the client replans against the current module.
var ErrStalePlan = fmt.Errorf("plan is stale")

// Close releases the session's indexes. Further method calls fail; the
// module itself is untouched and keeps every committed merge.
func (s *Session) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	s.finder = nil
	s.recs = nil
	s.byName = nil
	s.seen = nil
	s.pending = nil
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
	return s.delta(ctx, "Update", changed, nil)
}

// Remove drops the named functions from the candidate set, typically
// after the caller deleted them from the module. A function that is
// still defined simply stops being considered until a later Update
// re-admits it. A name the session has seen defined but no longer
// finds — one it never indexed (every function of an FMSA session, one
// SkipHot or MinInstrs keeps out), or one already retired — is a no-op.
// A name it has never seen defined is an error wrapping
// ErrUnknownFunction; the whole call is validated before anything is
// marked, so on error no name took effect.
func (s *Session) Remove(ctx context.Context, names ...string) error {
	return s.delta(ctx, "Remove", nil, names)
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
// validation, same ErrUnknownFunction on a diverged name, same no-op
// removal of a name seen defined but gone — with two
// differences: a name in both sets fails with an error wrapping
// ErrConflictingDelta, and the whole batch is validated before any name
// takes effect. All marks then share the next sync's single re-index
// window: one batched finder rebuild pass, no matter how many deltas
// the batch carried. That window is what makes streaming a
// 100k-function corpus into a session linear instead of quadratic.
func (s *Session) UpdateBatch(ctx context.Context, changed, removed []string) error {
	return s.delta(ctx, "UpdateBatch", changed, removed)
}

// delta is Update, Remove and UpdateBatch: it validates the whole delta,
// then marks it. op names the method in errors.
func (s *Session) delta(ctx context.Context, op string, changed, removed []string) error {
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
			return fmt.Errorf("driver: %s(%q): update and remove in one batch: %w", op, name, ErrConflictingDelta)
		}
		if s.m.FuncByName(name) == nil && s.byName[name] == nil {
			return fmt.Errorf("driver: %s(%q): %w", op, name, ErrUnknownFunction)
		}
	}
	rmTag := "remove "
	if op == "Remove" {
		rmTag = ""
	}
	for _, name := range removed {
		if s.byName[name] == nil && s.m.FuncByName(name) == nil && !s.seen[name] {
			return fmt.Errorf("driver: %s(%s%q): %w", op, rmTag, name, ErrUnknownFunction)
		}
	}
	for _, name := range changed {
		if f := s.m.FuncByName(name); f != nil {
			if !f.IsDecl() {
				s.saw(name, f)
			}
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
			// A body redefined in place (irtext.ParseInto) was released:
			// nothing built from it may outlive this report, sequences
			// included, even until the next sync re-indexes f.
			if s.recs != nil {
				s.recs.reset(f)
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
			s.saw(name, f)
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

// newRunner binds one run's loop to the session's index layers. A dry
// run adds its plan and name overlay.
func (s *Session) newRunner(res *Result) *runner {
	return &runner{
		m: s.m, cfg: s.cfg, finder: s.finder, recs: s.recs, families: s.families,
		runID: newRunID(), res: res, progress: s.cfg.progressFn(),
		markPending: s.markPending,
		consumed:    map[*ir.Function]bool{},
	}
}

// moduleBytes is costmodel.ModuleBytes off the records' sizes: a
// record's size is current for every indexed function without a pending
// mark, so only the rest — what the delta or the run touched, and
// whatever is not a candidate — is priced again. An FMSA session keeps
// no records between runs.
func (s *Session) moduleBytes() int {
	if s.recs == nil {
		return costmodel.ModuleBytes(s.m, s.cfg.Target)
	}
	n := 0
	for _, f := range s.m.Funcs {
		r := s.recs.of[f]
		if _, stale := s.pending[f]; r != nil && !stale {
			n += r.size
		} else {
			n += costmodel.FuncBytes(f, s.cfg.Target)
		}
	}
	return n
}

// finishStats folds the per-run finder and sequence-request deltas
// into res and moves the session baselines forward. Every run that got
// as far as its walk ends here, releasing the bodies its flattens
// thawed and leaving the reference index (family.go) to be brought up
// to date by the next run's first caller check.
func (s *Session) finishStats(res *Result) {
	s.families.runDone()
	cur := s.finder.Stats()
	res.Search = search.Stats{
		Queries:   cur.Queries - s.lastSearch.Queries,
		Scanned:   cur.Scanned - s.lastSearch.Scanned,
		Probed:    cur.Probed - s.lastSearch.Probed,
		QueryTime: cur.QueryTime - s.lastSearch.QueryTime,
		Indexed:   cur.Indexed,
	}
	s.lastSearch = cur
	cc := s.recs.cacheStats()
	res.AlignCache = cc
	res.AlignCache.Hits -= s.lastCache.Hits
	res.AlignCache.Misses -= s.lastCache.Misses
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
	clk := startRun()
	if s.cfg.Algorithm == FMSA {
		return s.optimizeFMSA(ctx, clk)
	}
	res := s.newResult()
	if err := ctx.Err(); err != nil {
		res.FinalBytes = res.BaselineBytes
		clk.stop(res)
		return res, err
	}
	s.sync()
	runErr := s.newRunner(res).walk(ctx, s.candidateOrder())
	s.finishStats(res)
	s.finishFamilies(res)
	res.FinalBytes = s.moduleBytes()
	clk.stop(res)
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
	res.FamilyBytes = s.families.bytes()
}

// optimizeFMSA is the FMSA run: register demotion rewrites every
// candidate before merging and register promotion rewrites them back
// afterwards, so no index survives the run — the session indexes the
// demoted module for the run, exactly like the one-shot pipeline, and
// drops every index afterwards.
func (s *Session) optimizeFMSA(ctx context.Context, clk runClock) (*Result, error) {
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
		clk.stop(res)
		return res, err
	}
	// The cost model must price the originals at their *final*
	// (promoted) size — unmerged functions are promoted back during
	// clean-up — so record sizes before any demotion.
	defined := s.m.Defined()
	preSize := make(map[*ir.Function]int, len(defined))
	for _, f := range defined {
		preSize[f] = costmodel.FuncBytes(f, s.cfg.Target)
	}
	fmsa.PrepareModule(s.m)
	s.recs = newRecords(s.cfg.Target, len(defined))
	var candidates []*ir.Function
	for _, f := range s.m.Defined() {
		if s.eligible(f) {
			candidates = append(candidates, f)
			s.recs.put(f, preSize[f])
		}
	}
	s.finder = search.New(search.KindLSH, candidates)
	runErr := s.newRunner(res).walk(ctx, candidates)
	// Clean-up (Figure 1): re-promote and simplify every demoted
	// function; whatever cannot be promoted back is the residue.
	// Clean-up runs even on cancellation so the module stays consistent.
	fmsa.CleanupModule(s.m)
	res.Search, res.AlignCache = s.finder.Stats(), s.recs.cacheStats()
	s.finder, s.recs = nil, nil
	res.FinalBytes = costmodel.ModuleBytes(s.m, s.cfg.Target)
	clk.stop(res)
	return res, runErr
}

// Plan is the dry run: the same greedy loop as Optimize, returning the
// serializable Plan of merges (and duplicate folds) a commit run would
// apply. What a proposal or fold consumes leaves the finder exactly as
// in a commit, so Plan asks the finder what Optimize asks; when the walk
// returns — finished, failed or cancelled — the finder gets it all back.
// Its trials are built in place exactly as Optimize builds them and all
// discarded, so the module comes back as found — every function, body
// and use list as it was — but it is not left alone meanwhile (see
// Session). Plans embed each function's structural hash; Apply verifies
// them, so a plan can be shipped across a process boundary and applied
// later — or filtered first.
func (s *Session) Plan(ctx context.Context) (*Plan, error) {
	p, _, err := s.PlanReport(ctx)
	return p, err
}

// PlanReport is Plan with the dry run's accounting: the Result carries
// the loop's counters (attempts, memo hits, funnel screens, trials
// built and skipped — those Optimize would count on the same
// module) and timings, with FinalBytes equal to BaselineBytes since a
// dry run leaves the module as it found it.
func (s *Session) PlanReport(ctx context.Context) (*Plan, *Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, nil, errClosed
	}
	if s.cfg.Algorithm == FMSA {
		return nil, nil, fmt.Errorf("driver: Plan requires a SalSSA variant; FMSA merges need whole-module register demotion (use Optimize)")
	}
	clk := startRun()
	res := s.newResult()
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	s.sync()
	r := s.newRunner(res)
	r.plan = &Plan{Algorithm: s.cfg.Algorithm.String(), Threshold: s.cfg.Threshold, RunID: r.runID}
	r.claimed = map[string]bool{}
	runErr := r.walk(ctx, s.candidateOrder())
	r.giveBack()
	s.finishStats(res)
	res.FinalBytes = res.BaselineBytes
	clk.stop(res)
	if runErr != nil {
		return nil, nil, runErr
	}
	return r.plan, res, nil
}

// Apply commits a plan — typically one returned by Plan, possibly with
// entries filtered out by the caller — against the live module. Every
// entry is checked first (checkPlan), so a refused plan, stale or
// malformed, commits nothing. A fold is priced from the live body as
// Optimize prices it; merges are re-generated from the current bodies
// (hash equality makes this reproduce the planned merge) and committed
// unconditionally, in plan order, under names re-derived against the
// live module (the Result records them). A cancellation or a trial
// error leaves the committed prefix in place — every fold and the first
// len(Result.Merges) merges — as Optimize's cancellation does.
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
		return nil, fmt.Errorf("driver: %w: plan was produced for %s, session runs %s", ErrStalePlan, p.Algorithm, s.cfg.Algorithm)
	}
	clk := startRun()
	res := s.newResult()
	if err := ctx.Err(); err != nil {
		res.FinalBytes = res.BaselineBytes
		clk.stop(res)
		return res, err
	}
	s.sync()
	r := s.newRunner(res)
	finish := func(err error) (*Result, error) {
		s.finishStats(res)
		s.finishFamilies(res)
		res.FinalBytes = s.moduleBytes()
		clk.stop(res)
		return res, err
	}
	fps, err := s.checkPlan(p)
	if err != nil {
		return finish(err)
	}
	for _, pf := range p.Folds {
		dup := s.m.FuncByName(pf.Dup)
		r.fold(dup, s.m.FuncByName(pf.Rep), r.foldProfit(dup))
	}
	for i, pm := range p.Merges {
		if err := ctx.Err(); err != nil {
			return finish(err)
		}
		// Apply commits planned merges unconditionally, so there is no
		// gate to screen against — every trial materializes.
		t := planTrial(ctx, s.m, s.recs, fps[i], s.m.FuncByName(pm.F1), s.m.FuncByName(pm.F2), nil, s.cfg, noGate, &r.ares)
		res.add(t.counters())
		if t.err != nil {
			return finish(fmt.Errorf("driver: applying @%s + @%s: %w", pm.F1, pm.F2, t.err))
		}
		r.commitStep(t)
	}
	return finish(nil)
}

// checkPlan refuses, wrapping ErrStalePlan, a plan Apply could not
// commit in full: a function gone, changed since planning, not a
// candidate or named twice (a self-fold or self-merge too); a fold of
// two different functions; a merge with a forwarding body or a partner
// the generator cannot pair; a flattening the family registry no longer
// matches or whose head a fold would leave called. It returns each
// merge's flattening (nil for a pair). A fold rewrites only its
// duplicate and a merge only what it consumes, so no commit changes
// what a later entry was checked against.
func (s *Session) checkPlan(p *Plan) ([]*memberPlan, error) {
	consumed, reps := map[string]bool{}, map[*ir.Function]bool{}
	live := func(name string, want uint64) (*ir.Function, error) {
		f := s.m.FuncByName(name)
		switch {
		case consumed[name]:
			return nil, fmt.Errorf("driver: %w: plan consumes @%s twice", ErrStalePlan, name)
		case f == nil:
			return nil, fmt.Errorf("driver: %w: function @%s is gone", ErrStalePlan, name)
		case search.HashFunction(f) != want:
			return nil, fmt.Errorf("driver: %w: @%s changed since planning", ErrStalePlan, name)
		case s.recs.of[f] == nil:
			return nil, fmt.Errorf("driver: %w: @%s is not a merge candidate of this session", ErrStalePlan, name)
		}
		return f, nil
	}
	for _, pf := range p.Folds {
		dup, err := live(pf.Dup, pf.DupHash)
		if err != nil {
			return nil, err
		}
		consumed[pf.Dup] = true
		rep, err := live(pf.Rep, pf.RepHash)
		if err != nil {
			return nil, err
		}
		// The hashes only say each side is as planned; a plan naming two
		// different functions would turn @dup into a call of the wrong
		// body.
		if !search.EqualFunctions(dup, rep) {
			return nil, fmt.Errorf("driver: %w: @%s is not a duplicate of @%s", ErrStalePlan, pf.Dup, pf.Rep)
		}
		reps[rep] = true
	}
	fps := make([]*memberPlan, len(p.Merges))
	for i, pm := range p.Merges {
		f1, err := live(pm.F1, pm.Hash1)
		if err != nil {
			return nil, err
		}
		consumed[pm.F1] = true
		f2, err := live(pm.F2, pm.Hash2)
		if err != nil {
			return nil, err
		}
		if ir.Forwardee(f1) != nil || ir.Forwardee(f2) != nil {
			return nil, fmt.Errorf("driver: %w: @%s + @%s names a forwarding body, never a merge partner", ErrStalePlan, pm.F1, pm.F2)
		}
		if len(pm.Family) > 0 {
			fps[i] = flattenFor(s.m, s.families, s.cfg.MaxFamily, f1, f2)
			if fps[i] == nil || !slices.Equal(fps[i].names, pm.Family) || slices.ContainsFunc(fps[i].heads, func(h *ir.Function) bool { return reps[h] }) {
				return nil, fmt.Errorf("driver: %w: family behind @%s + @%s no longer matches %v", ErrStalePlan, pm.F1, pm.F2, pm.Family)
			}
		} else if _, err := pairPlan(f1, f2); err != nil {
			return nil, fmt.Errorf("driver: %w: @%s + @%s cannot merge: %v", ErrStalePlan, pm.F1, pm.F2, err)
		}
		// A flatten's member thunks leave with the pair; Family names the newcomer too.
		consumed[pm.F2] = true
		for _, name := range pm.Family {
			if consumed[name] && name != pm.F1 && name != pm.F2 {
				return nil, fmt.Errorf("driver: %w: plan consumes @%s twice", ErrStalePlan, name)
			}
			consumed[name] = true
		}
	}
	return fps, nil
}
