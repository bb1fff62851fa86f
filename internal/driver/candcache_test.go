package driver

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/canon"
	"repro/internal/costmodel"
	"repro/internal/ir"
	"repro/internal/irtext"
	"repro/internal/search"
	"repro/internal/synth"
)

// funcNames renders a candidate list for a failure message.
func funcNames(fs []*ir.Function) []string {
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = f.Name()
	}
	return out
}

// checkCacheExact holds every cached candidate list to the finder's
// answer, element for element, and the bookkeeping around the lists to
// the lists themselves. It returns how many lists it compared.
func checkCacheExact(t *testing.T, c *candidateCache, finder search.Finder, when string) int {
	t.Helper()
	for owner, got := range c.lists {
		want := finder.Candidates(owner, c.t)
		if !slices.Equal(got, want) {
			t.Errorf("%s: cached list of @%s is %v, the finder answers %v",
				when, owner.Name(), funcNames(got), funcNames(want))
		}
		r, ok := c.radius[owner]
		if full := len(got) == c.t; !ok || full != (r < math.MaxInt32) {
			t.Errorf("%s: @%s has %d of %d members and radius %d (present %v)", when, owner.Name(), len(got), c.t, r, ok)
		}
		for _, g := range got {
			if !c.member[g][owner] {
				t.Errorf("%s: @%s lists @%s without a member entry", when, owner.Name(), g.Name())
			}
		}
	}
	for g, owners := range c.member {
		for owner := range owners {
			if !slices.Contains(c.lists[owner], g) {
				t.Errorf("%s: stale member entry @%s -> @%s", when, g.Name(), owner.Name())
			}
		}
	}
	return len(c.lists)
}

// cloneFamily returns a module of n structurally identical functions
// (pairwise fingerprint distance 0) under the given names, plus one
// unrelated function "other".
func cloneFamily(t *testing.T, names ...string) *ir.Module {
	t.Helper()
	m := synth.Generate(synth.Profile{
		Name: "tie", Seed: 11, Funcs: 2,
		MinSize: 30, AvgSize: 40, MaxSize: 60, Loops: 0.5,
	})
	defined := m.Defined()
	tmpl := defined[0]
	defined[1].SetName("other")
	for _, name := range names[1:] {
		c, _ := ir.CloneFunction(tmpl, name)
		m.AddFunc(c)
	}
	tmpl.SetName(names[0])
	return m
}

// fillCache queries and caches every indexed function's list, as a walk
// does.
func fillCache(c *candidateCache, finder search.Finder) {
	for _, f := range finder.Order() {
		c.put(f, finder.Candidates(f, c.t))
	}
}

// TestCandidateCacheReindexedAfterRetire is the white-box reproduction
// of the stale-list bug: a function retired mid-walk keeps no
// fingerprint in the cache, so when the next sync re-indexes it with
// the fingerprint it left with, applyDelta cannot take it for a
// function that never moved — the lists cached in its absence get it
// back.
func TestCandidateCacheReindexedAfterRetire(t *testing.T) {
	m := cloneFamily(t, "a", "b", "c")
	finder := search.NewIndexed(m.Defined(), nil)
	c := newCandidateCache(1, nil)
	owner, g := m.FuncByName("b"), m.FuncByName("a")
	// The first query names g (a distance-0 tie won on name) and
	// leaves its fingerprint behind.
	c.put(owner, finder.Candidates(owner, 1))
	if l, _ := c.get(owner); len(l) != 1 || l[0] != g {
		t.Fatalf("@b's nearest is %v, want [a]", funcNames(l))
	}
	// A commit retires g; a later row of the same walk caches @b's
	// list without it.
	c.remove(g)
	finder.Remove(g)
	c.put(owner, finder.Candidates(owner, 1))
	if l, _ := c.get(owner); len(l) != 1 || l[0].Name() != "c" {
		t.Fatalf("with @a retired @b's nearest is %v, want [c]", funcNames(l))
	}
	// The next sync re-indexes g, body unchanged.
	finder.Add(g)
	c.applyDelta([]*ir.Function{g}, nil)
	if l, _ := c.get(owner); len(l) != 1 || l[0] != g {
		t.Errorf("after @a is re-indexed @b is served %v, want [a]", funcNames(l))
	}
	checkCacheExact(t, c, finder, "after the re-index")
}

// squareFirstInt rewrites f in place so its fingerprint changes, even
// through a canonical view: the first integer binary result is squared
// (one more mul, which nothing folds away) and its users take the square.
func squareFirstInt(t *testing.T, f *ir.Function) {
	t.Helper()
	var in *ir.Instruction
	f.Instrs(func(x *ir.Instruction) bool {
		if x.Op().IsBinary() && ir.IsInt(x.Type()) && ir.HasUses(x) {
			in = x
		}
		return in == nil
	})
	if in == nil {
		t.Fatalf("@%s has no used integer binary instruction to edit", f.Name())
	}
	sq := ir.NewBinary(ir.OpMul, "sq", in, in)
	in.Parent().InsertAfter(sq, in)
	ir.ReplaceAllUsesWith(in, sq)
	sq.SetOperand(0, in)
	sq.SetOperand(1, in)
}

// TestCandidateCacheSeesFingerprintChange: the cache's fingerprints are
// copies of the ones the finder ranks by, so when a sync re-indexes an
// edited function the copy the cache held from before is the old side
// of applyDelta's comparison. Were it the finder's own storage, the
// re-index would overwrite both sides, the change would look like no
// change, and @b would keep being served the edited @a instead of
// having its list dropped.
func TestCandidateCacheSeesFingerprintChange(t *testing.T) {
	ctx := context.Background()
	for _, canonOn := range []bool{false, true} {
		for _, finder := range finderNames {
			t.Run(fmt.Sprintf("%s/canon=%v", finder, canonOn), func(t *testing.T) {
				m := cloneFamily(t, "a", "b", "c")
				cfg := Config{Algorithm: SalSSA, Threshold: 1, Target: costmodel.X86_64}
				if canonOn {
					cfg.Canon = canon.Default()
				}
				s, err := OpenSession(ctx, m, cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				a, b := m.FuncByName("a"), m.FuncByName("b")
				s.cands.put(b, s.finder.Candidates(b, 1))
				if l, _ := s.cands.get(b); len(l) != 1 || l[0] != a {
					t.Fatalf("@b's nearest is %v, want [a]", funcNames(l))
				}
				held := s.cands.fps[a]
				before := *held
				squareFirstInt(t, a)
				if err := s.Update(ctx, "a"); err != nil {
					t.Fatal(err)
				}
				if err := s.Flush(); err != nil {
					t.Fatal(err)
				}
				if *held != before {
					t.Fatal("re-indexing @a rewrote the fingerprint the cache held")
				}
				if now := s.cands.fps[a]; now == nil || *now == before {
					t.Fatal("the cache did not take @a's new fingerprint")
				}
				if l, ok := s.cands.get(b); ok {
					t.Errorf("after @a's edit @b is still served %v; its member moved, so the list should be gone", funcNames(l))
				}
				checkCacheExact(t, s.cands, s.finder, "after the edit")
			})
		}
	}
}

// TestCandidateCachePatchOrder drives applyDelta's insertion through
// the cases the (distance, name) order distinguishes: a tie at the
// radius that wins on name and one that loses, an incomplete list that
// takes every newcomer at its sorted position until it is full, and a
// newcomer that evicts the last member of a full list.
func TestCandidateCachePatchOrder(t *testing.T) {
	for _, name := range finderNames {
		t.Run(name, func(t *testing.T) {
			m := cloneFamily(t, "f", "m", "q")
			finder := search.NewIndexed(m.Defined(), nil)
			tmpl := m.FuncByName("f")
			add := func(c *candidateCache, name string) {
				t.Helper()
				g, _ := ir.CloneFunction(tmpl, name)
				m.AddFunc(g)
				finder.Add(g)
				c.applyDelta([]*ir.Function{g}, nil)
				checkCacheExact(t, c, finder, fmt.Sprintf("t=%d after adding @%s", c.t, name))
			}

			// t=1: every clone's list is the first other clone by name.
			c1 := newCandidateCache(1, nil)
			fillCache(c1, finder)
			add(c1, "z") // ties at radius 0 and loses on name everywhere
			if l, _ := c1.get(tmpl); len(l) != 1 || l[0].Name() != "m" {
				t.Errorf("@f's nearest is %v after a losing tie, want [m]", funcNames(l))
			}
			add(c1, "g") // ties and wins in @f's list (not in the others', which hold @f)
			if l, _ := c1.get(tmpl); len(l) != 1 || l[0].Name() != "g" {
				t.Errorf("@f's nearest is %v after a winning tie, want [g]", funcNames(l))
			}

			// t=8 over six functions: every list is incomplete (unbounded
			// radius) and takes every newcomer, until the eighth fills it.
			c8 := newCandidateCache(8, nil)
			fillCache(c8, finder)
			for owner, r := range c8.radius {
				if r != math.MaxInt32 || len(c8.lists[owner]) != 5 {
					t.Fatalf("@%s: want an incomplete list of 5, have %d with radius %d", owner.Name(), len(c8.lists[owner]), r)
				}
			}
			for _, name := range []string{"k", "a0", "zz"} {
				add(c8, name)
			}
			if l, r := c8.lists[tmpl], c8.radius[tmpl]; len(l) != 8 || r == math.MaxInt32 {
				t.Fatalf("@f's list has %d members and radius %d, want a full list of 8", len(l), r)
			}
			// A ninth clone evicts the unrelated function from the clones'
			// full lists; a tenth that sorts last among the ties stays out.
			add(c8, "b")
			if l := c8.lists[tmpl]; slices.Contains(l, m.FuncByName("other")) {
				t.Errorf("@f still lists @other after a ninth clone arrived: %v", funcNames(l))
			}
			add(c8, "zzz")
		})
	}
}

// TestCandidateCacheExactUnderChurn: twenty rounds of what a build
// service sends a session — mutated-clone redefinitions, new functions,
// removals, re-admissions, renames — each followed by a sync and an
// Optimize with duplicate folding and families on. After every sync,
// and again after every run, every cached list must be exactly what the
// finder answers.
func TestCandidateCacheExactUnderChurn(t *testing.T) {
	type variant struct {
		threshold int
		finder    string
		canon     bool
	}
	const exact, lsh = "exact", "lsh"
	variants := []variant{
		{1, lsh, false}, {3, lsh, false}, {8, lsh, false},
		{3, exact, false}, {3, lsh, true},
	}
	for _, v := range variants {
		t.Run(fmt.Sprintf("t=%d/%s/canon=%v", v.threshold, v.finder, v.canon), func(t *testing.T) {
			t.Parallel()
			ctx := context.Background()
			prof := synth.SuiteProfile(160, 5)
			m := synth.Generate(prof)
			cfg := Config{
				Algorithm: SalSSA, Threshold: v.threshold, Target: costmodel.X86_64,
				DupFold: true, MaxFamily: 4,
			}
			if v.canon {
				cfg.Canon = canon.Default()
			}
			s, err := OpenSession(ctx, m, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if _, err := sizedRun(t, s, nil); err != nil {
				t.Fatal(err)
			}
			checkCacheExact(t, s.cands, s.finder, "after the cold run")

			scratch := synth.Generate(prof)
			rng := rand.New(rand.NewSource(int64(v.threshold)))
			builder := synth.NewBuilder(scratch, rng, prof)
			// The first half of the suite is redefined, the second half
			// renamed, removed and re-admitted, so a fragment never names
			// a function another edit moved.
			targets := scratch.Defined()
			edits, rest := targets[:len(targets)/2], targets[len(targets)/2:]
			order := rng.Perm(len(edits))
			var sidelined []string
			checked := 0
			for round := 0; round < 20; round++ {
				frag := churnRound(scratch, builder, edits, order, round, 4, prof.MutRate)
				names, err := irtext.ParseInto(m, frag)
				if err != nil {
					t.Fatal(err)
				}
				// A brand-new function: a mutated clone under a new name.
				fresh := builder.Clone(edits[order[round]], fmt.Sprintf("fresh%d", round), prof.MutRate)
				scratch.RemoveFunc(fresh)
				added, err := irtext.ParseInto(m, fresh.String())
				if err != nil {
					t.Fatal(err)
				}
				names = append(names, added...)
				// Re-admit what the last round sidelined, sideline another
				// (it stays defined; Remove only takes it out of play), and
				// rename a third.
				names = append(names, sidelined...)
				sidelined = nil
				if f := m.FuncByName(rest[round].Name()); f != nil && s.indexed[f] {
					sidelined = append(sidelined, f.Name())
				}
				if f := m.FuncByName(rest[20+round].Name()); f != nil {
					// Alternate the direction so the rename moves the
					// function both ways through the name order of its ties.
					name := "a." + f.Name()
					if round%2 == 1 {
						name = f.Name() + ".z"
					}
					f.SetName(name)
					names = append(names, name)
				}
				if err := s.UpdateBatch(ctx, names, sidelined); err != nil {
					t.Fatal(err)
				}
				if err := s.Flush(); err != nil {
					t.Fatal(err)
				}
				checked += checkCacheExact(t, s.cands, s.finder, fmt.Sprintf("round %d after sync", round))
				if _, err := sizedRun(t, s, nil); err != nil {
					t.Fatal(err)
				}
				checkCacheExact(t, s.cands, s.finder, fmt.Sprintf("round %d after the run", round))
				if t.Failed() {
					t.FailNow()
				}
			}
			if err := ir.VerifyModule(m); err != nil {
				t.Fatalf("module does not verify after the churn: %v", err)
			}
			// Vacuity guard: lists survived the syncs to be compared.
			if checked < 20*len(s.cands.lists)/2 {
				t.Errorf("only %d cached lists were compared over 20 syncs of ~%d candidates", checked, len(s.cands.lists))
			}
		})
	}
}
