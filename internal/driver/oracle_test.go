package driver

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/align"
	"repro/internal/corpus"
	"repro/internal/costmodel"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/irtext"
	"repro/internal/synth"
)

// The oracle behind every differential of the pipeline. A cell is an
// input, a Config and a number of runs of one session; every run any
// test makes goes through one checked run (oracle.check); and one table
// (pathTable) names the ways of reaching a run's output that are
// declared equivalent to the session's. A test is a row: a cell and
// the paths it holds to the cell's runs. The package's TestMain puts
// every run under ir.ReleaseCheck, transform.SkipCheck and the
// caller-check hook.

const (
	// The behaviour differential of a cell, or of a run outside one,
	// executes at most oracleSample rewritten functions, each on
	// oracleArgSeeds argument vectors. The original runs under
	// oracleSteps, and an execution that exhausts it is not comparable;
	// the rewrite gets a budget no merge overhead can exhaust.
	oracleSample     = 500
	oracleArgSeeds   = 3
	oracleSteps      = 1 << 16
	oracleStepsAfter = 1 << 20
)

// Known defects the oracle tolerates, each named by a FOUND line in
// CHANGES.md. Setting one to false restores the full check it relaxes.
const (
	// An FMSA run's clean-up re-promotes and simplifies every demoted
	// function, merged or not, so the module's change is not the sum of
	// the records' profits: check logs the gap instead of failing.
	knownFMSAProfitDrift = true
	// Set, the remove path deletes only an indexed function and does not
	// run on FMSA: the workaround for a Session.Remove that refuses a
	// deleted function the session never indexed (every function of an
	// FMSA session, one SkipHot or MinInstrs keeps out).
	knownRemoveUnindexed = false
)

// oracle checks runs: see check. left is how many more functions its
// seeded behaviour sample may execute, each on seeds argument vectors
// with the original under steps; refine skips an original execution
// the rewrite need not reproduce (see behaves).
type oracle struct {
	t            testing.TB
	rng          *rand.Rand
	left         int
	seeds, steps int
	refine       bool
}

func newOracle(t testing.TB) *oracle {
	return &oracle{t: t, rng: rand.New(rand.NewSource(1)), left: oracleSample, seeds: oracleArgSeeds, steps: oracleSteps, refine: true}
}

// sizedRun is one checked run of s — Apply of p, or Optimize when p is
// nil — for tests that drive a session by hand, with a behaviour sample
// of its own.
func sizedRun(t testing.TB, s *Session, p *Plan) (*Result, error) {
	t.Helper()
	return newOracle(t).run(s, p, nil)
}

// mustRun is sizedRun that must succeed.
func mustRun(t testing.TB, s *Session, p *Plan) *Result {
	t.Helper()
	res, err := sizedRun(t, s, p)
	if err != nil {
		t.Fatalf("%v", err)
	}
	return res
}

// run is one checked run of s: Apply of p, or Optimize when p is nil.
func (o *oracle) run(s *Session, p *Plan, pristine *ir.Module) (*Result, error) {
	o.t.Helper()
	return o.check(s.m, s.cfg, s, pristine, func() (*Result, error) {
		if p == nil {
			return s.Optimize(context.Background())
		}
		return s.Apply(context.Background(), p)
	})
}

// must fails the test on a run's error.
func (o *oracle) must(res *Result, err error) *Result {
	o.t.Helper()
	if err != nil {
		o.t.Fatalf("%v", err)
	}
	return res
}

// check performs one run of m under cfg by do — in s, or one-shot when
// s is nil — and holds it to the oracle, whose behaviour differential
// runs the rewritten functions' bodies in pristine: the cell's input,
// or, when pristine is nil, a copy of m made before the run while the
// sample lasts. The report's BaselineBytes and FinalBytes must be
// costmodel.ModuleBytes of the module before and after: the session
// sums its maintained sizes instead of re-pricing the module, and the
// two must never drift. A run that returns no error must also:
//   - save exactly what its records claim (claimedBytes), so no gate
//     decision rests on a saving the module never makes (but see
//     knownFMSAProfitDrift);
//   - leave a module that verifies and session records that describe
//     it (checkRecords; an FMSA session keeps none between runs);
//   - report no families when MaxFamily leaves tracking off;
//   - rewrite no skip-hot function, and leave every function it
//     rewrote that pristine defines behaving as its body there does, on
//     a seeded sample.
func (o *oracle) check(m *ir.Module, cfg Config, s *Session, pristine *ir.Module, do func() (*Result, error)) (*Result, error) {
	t := o.t
	t.Helper()
	switch {
	case pristine != nil:
	case o.left > 0:
		pristine = ir.CloneModule(m)
	default:
		pristine = m // the module after the run: the sample is spent
	}
	before := costmodel.ModuleBytes(m, cfg.Target)
	res, err := do()
	if res != nil {
		if after := costmodel.ModuleBytes(m, cfg.Target); res.BaselineBytes != before || res.FinalBytes != after {
			t.Errorf("report sizes %d -> %d, costmodel.ModuleBytes says %d -> %d",
				res.BaselineBytes, res.FinalBytes, before, after)
		}
	}
	if err != nil {
		return res, err
	}
	if claimed, saved := claimedBytes(res), res.BaselineBytes-res.FinalBytes; claimed != saved {
		if knownFMSAProfitDrift && cfg.Algorithm == FMSA {
			t.Logf("known FMSA profit drift: records claim %d bytes saved, the module shrank by %d", claimed, saved)
		} else {
			t.Errorf("records claim %d bytes saved, the module shrank by %d", claimed, saved)
		}
	}
	if err := ir.VerifyModule(m); err != nil {
		t.Fatalf("the module does not verify after the run: %v", err)
	}
	if s != nil && s.recs != nil {
		checkRecords(t, s, "after the run")
	}
	if cfg.MaxFamily < 3 && (res.Flattened != 0 || res.Families != 0 || res.FamilySizes != nil) {
		t.Errorf("family tracking is off, yet the run reports %d flattened, %d families %v",
			res.Flattened, res.Families, res.FamilySizes)
	}
	names := rewritten(res, pristine)
	for _, name := range names {
		if cfg.SkipHot[name] {
			t.Errorf("the run rewrote @%s, which is on the skip-hot list", name)
		}
	}
	if pristine != m {
		o.behaves(pristine, m, names)
	}
	return res, nil
}

// claimedBytes is what a run's committed merges and folds claim to save.
func claimedBytes(res *Result) int {
	claimed := 0
	for _, mr := range res.Merges {
		if mr.Committed {
			claimed += mr.Profit
		}
	}
	for _, fr := range res.Folds {
		claimed += fr.Profit
	}
	return claimed
}

// rewritten lists the functions defined in pristine that a run turned
// into a thunk or a forwarder: merge members (a pair, or a flattened
// family's originals; the heads a flattening consumes are gone) and
// folded duplicates, in record order.
func rewritten(res *Result, pristine *ir.Module) []string {
	var names []string
	add := func(name string) {
		if f := pristine.FuncByName(name); f != nil && !f.IsDecl() && !slices.Contains(names, name) {
			names = append(names, name)
		}
	}
	for _, mr := range res.Merges {
		members := mr.Family
		if members == nil {
			members = []string{mr.F1, mr.F2}
		}
		for _, n := range members {
			add(n)
		}
	}
	for _, fr := range res.Folds {
		add(fr.Dup)
	}
	return names
}

// behaves runs a seeded sample of the named functions, as many as the
// oracle has left, in pristine and in m on every argument seed, and
// requires the same observable behaviour. Under refine an original
// execution that exhausts its budget (smaller than the rewrite's) is
// skipped. Otherwise two executions that exhaust the same budget agree.
func (o *oracle) behaves(pristine, m *ir.Module, names []string) {
	t := o.t
	t.Helper()
	names = slices.Clone(names)
	o.rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	names = names[:min(len(names), o.left)]
	o.left -= len(names)
	before, after := interp.NewEnv(), interp.NewEnv()
	before.MaxSteps, after.MaxSteps = o.steps, oracleStepsAfter
	for _, name := range names {
		of, nf := pristine.FuncByName(name), m.FuncByName(name)
		if nf == nil || nf.IsDecl() {
			t.Errorf("@%s vanished", name)
			continue
		}
		for seed := int64(1); seed <= int64(o.seeds); seed++ {
			a := interp.Run(before, of, interp.ArgsFor(of, seed))
			if o.refine && strings.Contains(a.Err, "step limit") {
				continue
			}
			b := interp.Run(after, nf, interp.ArgsFor(nf, seed))
			if same, why := interp.SameBehavior(a, b); !same {
				t.Errorf("behaviour of @%s changed (seed %d): %s", name, seed, why)
				return
			}
		}
	}
}

// diffModule holds every function defined in orig to its behaviour in
// merged, for tests that rewrite a module outside a checked run: on
// argument seeds 1–5, both sides under oracleStepsAfter.
func diffModule(t testing.TB, orig, merged *ir.Module, label string) {
	t.Helper()
	var names []string
	for _, f := range orig.Defined() {
		names = append(names, f.Name())
	}
	o := newOracle(&labelled{t, label})
	o.left, o.seeds, o.steps, o.refine = len(names), 5, oracleStepsAfter, false
	o.behaves(orig, merged, names)
}

// labelled prefixes a test's failures with a label.
type labelled struct {
	testing.TB
	label string
}

func (l *labelled) Errorf(format string, args ...any) {
	l.TB.Helper()
	l.TB.Errorf(l.label+": "+format, args...)
}

func (l *labelled) Fatalf(format string, args ...any) {
	l.TB.Helper()
	l.TB.Fatalf(l.label+": "+format, args...)
}

// run is one run's output: the module text after it (a cell's runs keep
// only the texts its paths and its digest read) and its report.
type run struct {
	text string
	res  *Result
}

// cell is one input, the configuration one session optimizes it under
// and how many times (it stops after a run that merges nothing;
// families only flatten from the second run on), with the paths held
// to those runs and the key of the digest that pins them in
// goldenDigestFile ("" pins none). A bare digest leaves out the final
// size and the attempts, as the grid's were recorded. hot puts the
// input's first two defined functions on the skip-hot list; big cells
// are skipped under -short.
type cell struct {
	name     string
	build    func(t testing.TB) *ir.Module
	cfg      Config
	runs     int
	paths    paths
	key      string
	bare     bool
	hot, big bool
}

// open opens a session over m, closed with the test.
func open(t testing.TB, m *ir.Module, cfg Config) *Session {
	t.Helper()
	s, err := OpenSession(context.Background(), m, cfg)
	if err != nil {
		t.Fatalf("%v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// run optimizes the cell's input through the oracle, checks the digest
// and every path that holds under the cell's configuration, and returns
// the session and its runs.
func (c cell) run(t testing.TB) (*Session, []*run) {
	t.Helper()
	if c.big && testing.Short() {
		t.Skip("a big input")
	}
	input := c.build(t)
	cfg := c.cfg
	if c.hot {
		defined := input.Defined()
		cfg.SkipHot = map[string]bool{defined[0].Name(): true, defined[1].Name(): true}
	}
	if cfg.MaxCells > 0 {
		longest := int64(0)
		for _, f := range input.Defined() {
			longest = max(longest, int64(len(align.Linearize(f))+1))
		}
		if longest*longest <= cfg.MaxCells {
			t.Fatalf("the largest pair has %d cells, within the cap of %d", longest*longest, cfg.MaxCells)
		}
	}
	o := newOracle(t)
	m := ir.CloneModule(input)
	s := open(t, m, cfg)
	var refs []*run
	folded := map[string]bool{}
	for len(refs) < max(c.runs, 1) && (len(refs) == 0 || len(refs[len(refs)-1].res.Merges) > 0) {
		res := o.must(o.run(s, nil, input))
		// An earlier run's duplicate is still a forwarder, and folding it
		// onto an identical forwarder saves nothing.
		for _, fr := range res.Folds {
			if folded[fr.Dup] {
				t.Errorf("run %d folds the forwarder @%s again", len(refs), fr.Dup)
			}
			folded[fr.Dup] = true
		}
		r := &run{res: res}
		if len(refs) == 0 && c.paths&oneShot != 0 {
			r.text = m.String()
		}
		refs = append(refs, r)
	}
	if last := refs[len(refs)-1]; last.text == "" {
		last.text = m.String()
	}
	if c.key != "" {
		var merges []MergeRecord
		var folds []FoldRecord
		attempts := 0
		for _, r := range refs {
			merges, folds, attempts = append(merges, r.res.Merges...), append(folds, r.res.Folds...), attempts+r.res.Attempts
		}
		d := digestOf(refs[len(refs)-1].text, merges, folds)
		if !c.bare {
			d.FinalBytes, d.Attempts = refs[len(refs)-1].res.FinalBytes, attempts
		}
		checkGolden(t, c.key, d)
	}
	for _, p := range pathTable {
		if c.paths&p.p != 0 && p.p.holds(cfg) {
			o.t = &labelled{t, p.name}
			p.check(o, input, cfg, refs)
			o.t = t
		}
	}
	return s, refs
}

// paths is a set of execution paths (see pathTable).
type paths uint8

const (
	// oneShot is RunContext over a copy of the input, against the first
	// run.
	oneShot paths = 1 << iota
	// planApply runs a fresh session as the cell's session runs, except
	// that it plans its last run (PlanReport), round-trips the plan
	// through JSON and Applies it, against the last run.
	planApply
	// update, replace and remove edit the module after a first run and
	// report the edit; the session's next run must match a fresh
	// session's first run over the edited module.
	update
	replace
	remove
	// batch reports mutateCorpus's delta through one UpdateBatch, against
	// the same marks made one call at a time.
	batch
)

// holds reports whether every path of p is declared equivalent under
// cfg. Plan needs a SalSSA variant (and so does remove, while
// knownRemoveUnindexed stands). A delta needs family tracking off: a
// fresh session cannot recover the family registry (see
// Session.families).
func (p paths) holds(cfg Config) bool {
	return !(p&planApply != 0 && cfg.Algorithm == FMSA) &&
		!(p&remove != 0 && knownRemoveUnindexed && cfg.Algorithm == FMSA) &&
		!(p&(update|replace|remove|batch) != 0 && cfg.MaxFamily >= 3)
}

// pathTable is every path with its check.
var pathTable = []struct {
	p     paths
	name  string
	check func(o *oracle, input *ir.Module, cfg Config, refs []*run)
}{
	{oneShot, "one-shot", checkOneShot},
	{planApply, "plan-apply", checkPlanApply},
	{update, "update", deltaCheck(updateEdit, false)},
	{replace, "replace", deltaCheck(replaceEdit, false)},
	{remove, "remove", deltaCheck(removeEdit, false)},
	{batch, "batch", checkBatch},
}

// sameRun holds got to want: module text, merge and fold records, final
// size, flattenings and, when attempts is set, the pairs the run
// considered.
func sameRun(t testing.TB, want, got *run, attempts bool) {
	t.Helper()
	w, g := want.res, got.res
	if want.text != got.text {
		t.Errorf("module text diverges from the reference's (%d bytes, reference %d)", len(got.text), len(want.text))
	}
	if d := firstDiff(w.Merges, g.Merges); d != "" {
		t.Errorf("merges differ: %s", d)
	}
	if d := firstDiff(w.Folds, g.Folds); d != "" {
		t.Errorf("folds differ: %s", d)
	}
	if w.FinalBytes != g.FinalBytes || w.Flattened != g.Flattened || attempts && w.Attempts != g.Attempts {
		t.Errorf("final bytes, flattenings, attempts %d, %d, %d; the reference's %d, %d, %d",
			g.FinalBytes, g.Flattened, g.Attempts, w.FinalBytes, w.Flattened, w.Attempts)
	}
}

// firstDiff describes where got first parts from want, or is empty.
func firstDiff[T any](want, got []T) string {
	i := 0
	for i < len(want) && i < len(got) && reflect.DeepEqual(want[i], got[i]) {
		i++
	}
	if i == len(want) && i == len(got) {
		return ""
	}
	return fmt.Sprintf("%d entries, the reference %d; first difference at %d:\n  reference %+v\n  got       %+v",
		len(got), len(want), i, want[i:min(i+1, len(want))], got[i:min(i+1, len(got))])
}

func checkOneShot(o *oracle, input *ir.Module, cfg Config, refs []*run) {
	m := ir.CloneModule(input)
	res := o.runOnce(m, cfg, input)
	sameRun(o.t, refs[0], &run{m.String(), res}, true)
}

// runOnce is one checked one-shot RunContext of m under cfg, which
// must succeed; pristine is as for check.
func (o *oracle) runOnce(m *ir.Module, cfg Config, pristine *ir.Module) *Result {
	o.t.Helper()
	return o.must(o.check(m, cfg, nil, pristine, func() (*Result, error) { return RunContext(context.Background(), m, cfg) }))
}

// checkPlanApply: the Plan leaves the module text and every use list
// as found, counts the funnel and the finder work its Optimize counts,
// proposes the records Optimize commits and survives a JSON round trip;
// Apply of the decoded plan lands on the run.
func checkPlanApply(o *oracle, input *ir.Module, cfg Config, refs []*run) {
	t, m := o.t, ir.CloneModule(input)
	s := open(t, m, cfg)
	for range refs[1:] {
		o.must(o.run(s, nil, input))
	}
	ref := refs[len(refs)-1]
	before, lists := m.String(), takeUseLists(m)
	plan, dry, err := s.PlanReport(context.Background())
	if err != nil {
		t.Fatalf("%v", err)
	}
	if m.String() != before {
		t.Fatalf("Plan mutated the module")
	}
	checkUseLists(t, lists, "Plan")
	type work struct{ Attempts, OutcomeHits, PairsScreened, TrialsBuilt, TrialsSkipped, Queries, Probed, Scanned int }
	count := func(r *Result) work {
		return work{r.Attempts, r.OutcomeHits, r.PairsScreened, r.TrialsBuilt, r.TrialsSkipped, r.Search.Queries, r.Search.Probed, r.Search.Scanned}
	}
	t.Logf("plan-apply: Plan's funnel and finder work %+v", count(dry))
	if got, want := count(dry), count(ref.res); got != want {
		t.Errorf("Plan counted %+v, Optimize %+v", got, want)
	}
	if len(plan.Merges) != len(ref.res.Merges) {
		t.Fatalf("plan proposes %d merges, Optimize committed %d", len(plan.Merges), len(ref.res.Merges))
	}
	for i, pm := range plan.Merges {
		if d := ref.res.Merges[i]; pm.F1 != d.F1 || pm.F2 != d.F2 || pm.Merged != d.Merged || pm.Profit != d.Profit {
			t.Errorf("plan entry %d = %+v, Optimize committed %+v", i, pm, d)
		}
	}
	blob, err := json.Marshal(plan)
	if err != nil {
		t.Fatalf("%v", err)
	}
	var decoded Plan
	if err := json.Unmarshal(blob, &decoded); err != nil || !reflect.DeepEqual(*plan, decoded) {
		t.Errorf("plan does not round-trip through JSON (%v)", err)
	}
	// Apply's attempts cover only the planned merges; the Plan's were
	// held to Optimize's above.
	applied := o.must(o.run(s, &decoded, input))
	sameRun(t, ref, &run{m.String(), applied}, false)
}

// deltaCheck is a delta path: after a first run, edit changes the
// module, the changed and removed names are reported (report), and the
// session's next run must match a fresh session's first run over the
// edited module.
func deltaCheck(edit func(*Session) (changed, removed []string), batched bool) func(*oracle, *ir.Module, Config, []*run) {
	return func(o *oracle, input *ir.Module, cfg Config, _ []*run) {
		t := o.t
		s := open(t, ir.CloneModule(input), cfg)
		o.must(o.run(s, nil, input))
		changed, removed := edit(s)
		if len(changed)+len(removed) == 0 {
			t.Skip("the module offers no such edit")
		}
		if err := report(s, changed, removed, batched); err != nil {
			t.Fatalf("%v", err)
		}
		matchesFresh(o, s)
	}
}

// matchesFresh runs s and a fresh session over a copy of its module,
// both through o, holds the two runs equal and returns their reports.
func matchesFresh(o *oracle, s *Session) (inc, fresh *Result) {
	mFresh := ir.CloneModule(s.m)
	inc = o.must(o.run(s, nil, mFresh))
	fresh = o.must(o.run(open(o.t, mFresh, s.cfg), nil, nil))
	sameRun(o.t, &run{mFresh.String(), fresh}, &run{s.m.String(), inc}, true)
	return inc, fresh
}

// report marks a delta in s: in one UpdateBatch, or one Update or
// Remove call per name.
func report(s *Session, changed, removed []string, batched bool) error {
	ctx := context.Background()
	if batched {
		return s.UpdateBatch(ctx, changed, removed)
	}
	for _, name := range changed {
		if err := s.Update(ctx, name); err != nil {
			return err
		}
	}
	for _, name := range removed {
		if err := s.Remove(ctx, name); err != nil {
			return err
		}
	}
	return nil
}

func checkBatch(o *oracle, input *ir.Module, cfg Config, _ []*run) {
	second := func(batched bool) *run {
		m := ir.CloneModule(input)
		s := open(o.t, m, cfg)
		o.must(o.run(s, nil, input))
		changed, removed := mutateCorpus(o.t, m)
		if err := report(s, changed, removed, batched); err != nil {
			o.t.Fatalf("%v", err)
		}
		return &run{m.String(), o.must(o.run(s, nil, nil))}
	}
	sameRun(o.t, second(false), second(true), true)
}

// cloneAs adds a clone of f named name to f's module.
func cloneAs(m *ir.Module, f *ir.Function, name string) *ir.Function {
	c, _ := ir.CloneFunction(f, name)
	return m.AddFunc(c)
}

// updateEdit gives one function a clone under a new name and makes
// another of its signature a forwarder to it.
func updateEdit(s *Session) (changed, removed []string) {
	defined := s.m.Defined()
	if len(defined) < 4 || s.m.FuncByName(defined[1].Name()+".edit") != nil {
		return nil, nil
	}
	src := defined[1]
	clone := cloneAs(s.m, src, src.Name()+".edit")
	for _, f := range defined[2:] {
		if f.Sig().String() == src.Sig().String() {
			ir.BuildForwarder(f, src, f.ParamValues())
			return []string{clone.Name(), f.Name()}, nil
		}
	}
	return []string{clone.Name()}, nil
}

// replaceEdit replaces the first function nothing references with a
// clone of another under the same name: the old object is gone from the
// module but would linger in the indexes without Update's replacement
// handling.
func replaceEdit(s *Session) (changed, removed []string) {
	victim := unreferenced(s.m, func(*ir.Function) bool { return true })
	defined := s.m.Defined()
	if victim == nil || len(defined) < 2 {
		return nil, nil
	}
	donor := defined[0]
	if donor == victim {
		donor = defined[1]
	}
	s.m.RemoveFunc(victim)
	cloneAs(s.m, donor, victim.Name())
	return []string{victim.Name()}, nil
}

// removeEdit deletes the first function nothing references (the first
// indexed one, while knownRemoveUnindexed stands).
func removeEdit(s *Session) (changed, removed []string) {
	victim := unreferenced(s.m, func(f *ir.Function) bool { return !knownRemoveUnindexed || s.byName[f.Name()] == f })
	if victim == nil {
		return nil, nil
	}
	s.m.RemoveFunc(victim)
	return nil, []string{victim.Name()}
}

// unreferenced returns the first defined function of m that ok accepts
// and no instruction operand mentions (merging thunked some).
func unreferenced(m *ir.Module, ok func(*ir.Function) bool) *ir.Function {
	referenced := map[*ir.Function]bool{}
	for _, f := range m.Funcs {
		f.Instrs(func(in *ir.Instruction) bool {
			for _, op := range in.Operands() {
				if g, isFunc := op.(*ir.Function); isFunc {
					referenced[g] = true
				}
			}
			return true
		})
	}
	for _, f := range m.Defined() {
		if !referenced[f] && ok(f) {
			return f
		}
	}
	return nil
}

// mutateCorpus applies a deterministic delta to m: removes some
// functions, replaces the bodies of others (cloning a donor under the
// victim's name) and adds a few new clones.
func mutateCorpus(t testing.TB, m *ir.Module) (changed, removed []string) {
	t.Helper()
	var names []string
	for _, f := range m.Defined() {
		names = append(names, f.Name())
	}
	if len(names) < 80 {
		t.Fatalf("corpus too small for delta: %d defined", len(names))
	}
	for i := 10; i < 60; i += 10 {
		removed = append(removed, names[i])
	}
	for i := 15; i < 65; i += 10 {
		m.RemoveFunc(m.FuncByName(names[i]))
		cloneAs(m, m.FuncByName(names[i+50]), names[i])
		changed = append(changed, names[i])
	}
	for i := 0; i < 3; i++ {
		changed = append(changed, cloneAs(m, m.FuncByName(names[70+i]), fmt.Sprintf("spliced_new_%d", i)).Name())
	}
	return changed, removed
}

// seedCell is testModule(seed) under cfg, one run.
func seedCell(seed int64, cfg Config, p paths) cell {
	return cell{
		name:  fmt.Sprintf("seed%d", seed),
		build: func(t testing.TB) *ir.Module { return testModule(t, seed) },
		cfg:   cfg, runs: 1, paths: p,
	}
}

// corpusCell is the corpus of n functions built from seed, one run.
func corpusCell(n int, seed int64, cfg Config, p paths) cell {
	return cell{
		name:  fmt.Sprintf("corpus%d", n),
		build: func(testing.TB) *ir.Module { return corpus.Build(corpus.Config{Funcs: n, Seed: seed}) },
		cfg:   cfg, runs: 1, paths: p, big: n > 1000,
	}
}

// suiteCell is one paper-suite program under the paper's configuration
// (threshold 1), one run.
func suiteCell(profiles []synth.Profile, name string, target costmodel.Target) cell {
	p, ok := synth.ByName(profiles, name)
	if !ok {
		panic("oracle: unknown suite profile " + name)
	}
	return cell{
		name:  "suite/" + name,
		build: func(testing.TB) *ir.Module { return synth.Generate(p) },
		cfg:   Config{Algorithm: SalSSA, Threshold: 1, Target: target},
		runs:  1, big: true,
	}
}

// mirroredBranches is two functions identical but for their
// conditional branch's arms, swapped: the Figure 11 rewrite (br (xor c,
// fid), B, A) is what makes their merge pay.
func mirroredBranches(t testing.TB) string {
	text, err := os.ReadFile("testdata/mirrored_branches.ll")
	if err != nil {
		t.Fatalf("%v", err)
	}
	return string(text)
}

// latticeCap is the MaxCells level of the lattice: every lattice input
// has a pair it refuses.
const latticeCap = 10000

// lattice is a pairwise-covering sample of the option lattice's seven
// axes — Algorithm, Threshold {1, 3, 10}, Target, MaxCells {0,
// latticeCap}, MinInstrs {0, 8}, SkipHot {none, two of the input's
// names} and MaxFamily {0, 4} — found by a seeded random search. Every
// row holds an Algorithm × Threshold pair no other row does. A row runs
// testModule(seed), a seed its row merges on; seed 0 runs the 2k
// corpus, where ties between a row's partners show.
var lattice = []struct {
	seed                    int64
	alg                     Algorithm
	threshold               int
	target                  costmodel.Target
	capped, min8, hot, fam4 bool
}{
	{41, SalSSA, 1, costmodel.Thumb, true, false, true, true},
	{0, SalSSA, 3, costmodel.X86_64, false, false, false, false},
	{43, SalSSA, 10, costmodel.Thumb, false, true, false, true},
	{44, SalSSANoPC, 1, costmodel.X86_64, true, true, false, true},
	{45, SalSSANoPC, 3, costmodel.Thumb, false, false, true, true},
	{46, SalSSANoPC, 10, costmodel.Thumb, false, true, true, false},
	{47, FMSA, 1, costmodel.Thumb, false, false, false, false},
	{48, FMSA, 3, costmodel.X86_64, true, true, false, true},
	{54, FMSA, 10, costmodel.X86_64, true, false, true, false},
}

// oracleCells is TestOracle's table: the lattice sample, the SPEC2017
// program the grid leaves out of the paper's three suites, and the
// mirrored-branch fixture. Each pins its runs under "oracle/".
func oracleCells() []cell {
	var cells []cell
	for _, l := range lattice {
		c := seedCell(l.seed, Config{Algorithm: l.alg, Threshold: l.threshold, Target: l.target}, oneShot|planApply|update|replace|remove)
		if l.seed == 0 {
			c = corpusCell(2000, 7, c.cfg, 0)
		}
		name := fmt.Sprintf("lattice/%v-t%d-%v", l.alg, l.threshold, l.target)
		if l.capped {
			c.cfg.MaxCells, name = latticeCap, name+"-capped"
		}
		if l.min8 {
			c.cfg.MinInstrs, name = 8, name+"-min8"
		}
		if l.hot {
			c.hot, name = true, name+"-hot"
		}
		if l.fam4 {
			c.cfg.MaxFamily, c.runs, name = 4, 2, name+"-fam4"
		}
		c.name = name + "/" + c.name
		cells = append(cells, c)
	}
	omnetpp := suiteCell(synth.SPEC2017(), "620.omnetpp_s", costmodel.X86_64)
	omnetpp.paths = oneShot | planApply
	cells = append(cells, omnetpp, cell{
		name:  "fixture/mirrored-branches",
		build: func(t testing.TB) *ir.Module { return irtext.MustParse(mirroredBranches(t)) },
		cfg:   Config{Algorithm: SalSSA, Threshold: 1, Target: costmodel.X86_64},
		runs:  1, paths: oneShot | planApply,
	})
	for i := range cells {
		cells[i].key = "oracle/" + cells[i].name
	}
	return cells
}

// TestOracle runs the oracle's own cells and holds the lattice sample
// to pairwise coverage. Under -short only the small cells run. Every
// cell must merge, or its paths and its differential check nothing.
func TestOracle(t *testing.T) {
	t.Parallel()
	cells := oracleCells()
	t.Run("pairwise", func(t *testing.T) {
		var rows [][7]int
		for _, c := range cells {
			if strings.HasPrefix(c.name, "lattice/") {
				rows = append(rows, levels(c))
			}
		}
		checkPairwise(t, rows)
	})
	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			merges := 0
			_, refs := c.run(t)
			for _, r := range refs {
				merges += len(r.res.Merges)
			}
			if merges == 0 {
				t.Error("the cell merges nothing")
			}
		})
	}
}

// levels is a lattice cell's level on each of the seven axes.
func levels(c cell) [7]int {
	on := map[bool]int{true: 1}
	return [7]int{
		int(c.cfg.Algorithm), slices.Index([]int{1, 3, 10}, c.cfg.Threshold), int(c.cfg.Target),
		on[c.cfg.MaxCells > 0], on[c.cfg.MinInstrs > 0], on[c.hot], on[c.cfg.MaxFamily >= 3],
	}
}

// checkPairwise requires every pair of levels of any two axes in some
// row, and every row to hold a pair no other row does, so that dropping
// any row loses coverage.
func checkPairwise(t *testing.T, rows [][7]int) {
	size := [7]int{3, 3, 2, 2, 2, 2, 2}
	pairs := func(r [7]int, f func(k [4]int)) {
		for i := range r {
			for j := i + 1; j < len(r); j++ {
				f([4]int{i, j, r[i], r[j]})
			}
		}
	}
	holders := map[[4]int]int{}
	for _, r := range rows {
		pairs(r, func(k [4]int) { holders[k]++ })
	}
	for i := range size {
		for j := i + 1; j < len(size); j++ {
			for k := range size[i] * size[j] {
				if holders[[4]int{i, j, k / size[j], k % size[j]}] == 0 {
					t.Errorf("no cell has level %d of axis %d with level %d of axis %d", k/size[j], i, k%size[j], j)
				}
			}
		}
	}
	for n, r := range rows {
		alone := false
		pairs(r, func(k [4]int) { alone = alone || holders[k] == 1 })
		if !alone {
			t.Errorf("lattice row %d covers no pair alone", n)
		}
	}
}

// FuzzOracle drives module text through the oracle: Open, Optimize, a
// storm of the delta edits in a seeded order, reported one name at a
// time or in one batch, Optimize, every run checked and the last held
// to a fresh session's. Text that does not
// parse or verify is skipped.
func FuzzOracle(f *testing.F) {
	for seed := int64(1); seed <= 3; seed++ {
		f.Add(testModule(f, seed).String(), seed)
	}
	f.Add(mirroredBranches(f), int64(1))
	f.Add(irtext.Fig2Module, int64(2))
	f.Fuzz(func(t *testing.T, text string, seed int64) {
		m, err := irtext.Parse(text)
		if err != nil || ir.VerifyModule(m) != nil {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		deltaCheck(func(s *Session) (changed, removed []string) {
			edits := []func(*Session) ([]string, []string){updateEdit, replaceEdit, removeEdit}
			for _, i := range rng.Perm(len(edits))[:1+rng.Intn(len(edits))] {
				c, r := edits[i](s)
				changed, removed = append(changed, c...), append(removed, r...)
			}
			// An edited function the storm then deleted is a removal.
			return slices.DeleteFunc(changed, func(name string) bool { return slices.Contains(removed, name) }), removed
		}, rng.Intn(2) == 0)(newOracle(t), m, sessionCfg, nil)
	})
}
