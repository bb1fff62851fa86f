package driver

import (
	"math"
	"slices"

	"repro/internal/fingerprint"
	"repro/internal/ir"
)

// candidateCache memoizes finder top-t candidate lists across runs of a
// session. A cached list for f stays exact until something could change
// it, which the fingerprint metric makes cheap to decide:
//
//   - f itself was edited or removed — the list is dropped;
//   - a member of the list was edited or removed — dropped via the
//     member reverse index (the (t+1)-th candidate is unknown);
//   - a changed (or new) function d could *enter* the list: top-t under
//     the finder's total order (distance, name) satisfies
//     top-t(S ∪ {d}) = top-t(top-t(S) ∪ {d}), so d is inserted at its
//     position and the last member of a full list evicted, without a
//     query. d reaches a full list only if Distance(f, d) <= the list's
//     worst member distance (its radius); a list with fewer than t
//     members holds every live candidate and takes every addition.
//
// Everything else provably returns the identical list, so the walk can
// skip the finder query altogether. Combined with the outcome memo this
// is what makes a small-delta re-optimize pay only for the delta.
//
// Only the session goroutine touches the cache.
type candidateCache struct {
	t int
	// fpOf returns the fingerprint the radius checks compare in. It
	// must match the space the finder's lists are ordered by, so sessions
	// hand out a copy of the finder's own (see Session.cacheFP); the copy
	// also keeps the side applyDelta compares against from changing under
	// a re-index. Nil means fingerprint.New on the original body.
	fpOf func(*ir.Function) *fingerprint.Fingerprint
	// fps[g] is only kept while g stays in the finder (see remove).
	fps   map[*ir.Function]*fingerprint.Fingerprint
	lists map[*ir.Function][]*ir.Function
	// radius is the worst member distance of a full list. An incomplete
	// list (fewer than t members) holds every live candidate and any add
	// joins it: its radius is unbounded (math.MaxInt32).
	radius map[*ir.Function]int32
	// member[g] is the set of list owners whose cached list contains g.
	member map[*ir.Function]map[*ir.Function]bool
}

func newCandidateCache(t int, fpOf func(*ir.Function) *fingerprint.Fingerprint) *candidateCache {
	return &candidateCache{
		t:      t,
		fpOf:   fpOf,
		fps:    map[*ir.Function]*fingerprint.Fingerprint{},
		lists:  map[*ir.Function][]*ir.Function{},
		radius: map[*ir.Function]int32{},
		member: map[*ir.Function]map[*ir.Function]bool{},
	}
}

// fp returns f's fingerprint for the radius checks, fetched lazily on
// first use: only functions that actually get a cached list pay here,
// once.
func (c *candidateCache) fp(f *ir.Function) *fingerprint.Fingerprint {
	v := c.fps[f]
	if v == nil {
		v = c.newFP(f)
		c.fps[f] = v
	}
	return v
}

func (c *candidateCache) newFP(f *ir.Function) *fingerprint.Fingerprint {
	if c.fpOf != nil {
		return c.fpOf(f)
	}
	return fingerprint.New(f)
}

// get returns the cached list for f, if still valid.
func (c *candidateCache) get(f *ir.Function) ([]*ir.Function, bool) {
	if c == nil {
		return nil, false
	}
	l, ok := c.lists[f]
	return l, ok
}

// put caches list — the finder's, or a patched one — for f. It only
// overwrites: patch runs inside a range over radius.
func (c *candidateCache) put(f *ir.Function, list []*ir.Function) {
	if c == nil {
		return
	}
	c.lists[f] = list
	r := int32(math.MaxInt32)
	if len(list) == c.t {
		r = fingerprint.Distance(c.fp(f), c.fp(list[len(list)-1]))
	}
	c.radius[f] = r
	for _, g := range list {
		set := c.member[g]
		if set == nil {
			set = map[*ir.Function]bool{}
			c.member[g] = set
		}
		set[f] = true
	}
}

// unlist drops owner from g's member set.
func (c *candidateCache) unlist(g, owner *ir.Function) {
	delete(c.member[g], owner)
	if len(c.member[g]) == 0 {
		delete(c.member, g)
	}
}

// dropOwner forgets f's cached list.
func (c *candidateCache) dropOwner(f *ir.Function) {
	for _, g := range c.lists[f] {
		c.unlist(g, f)
	}
	delete(c.lists, f)
	delete(c.radius, f)
}

// remove invalidates everything g touches: its own list, every list it
// is a member of, and its fingerprint. The walk calls this the moment a
// commit (or fold) removes g from the finder, so later queries in the
// same run cache what the finder returns — lists that lack g, so g must
// come back through applyDelta as a newcomer even when it is re-indexed
// with the fingerprint it left with.
func (c *candidateCache) remove(g *ir.Function) {
	if c == nil {
		return
	}
	for owner := range c.member[g] {
		c.dropOwner(owner)
	}
	c.dropOwner(g)
	delete(c.fps, g)
}

// applyDelta reconciles the cache with a sync's re-indexed (changed)
// and dropped (removed) functions. Candidate lists are a pure function
// of the live candidates' fingerprints and names, so only
// fingerprint-level changes matter: a re-indexed function that never
// left the finder and whose fingerprint is unchanged (an edit below the
// opcode-count level, or a re-report of an untouched function) cannot
// move any list and is skipped outright. For the rest, their own and
// their members' lists go, and each is patched into every surviving
// list it ranks inside — everything left is the exact top-t again.
func (c *candidateCache) applyDelta(changed, removed []*ir.Function) {
	if c == nil || (len(changed) == 0 && len(removed) == 0) {
		return
	}
	for _, g := range removed {
		c.remove(g)
	}
	var moved []*ir.Function
	var fresh []*fingerprint.Fingerprint
	for _, d := range changed {
		old, fp := c.fps[d], c.newFP(d)
		if old != nil && *old == *fp {
			continue
		}
		c.remove(d)
		c.fps[d] = fp
		moved, fresh = append(moved, d), append(fresh, fp)
	}
	for owner, r := range c.radius {
		self := c.fp(owner)
		for i, d := range moved {
			if dist := fingerprint.DistanceWithin(self, fresh[i], r); dist <= r {
				r = c.patch(owner, d, dist)
			}
		}
	}
}

// patch inserts the newly (re-)indexed d, at distance dist inside
// owner's radius, at its (distance, name) position in owner's list and
// returns the list's new radius. The patched list is a fresh slice:
// cached lists are aliased by walk rows and capture logs.
func (c *candidateCache) patch(owner, d *ir.Function, dist int32) int32 {
	self, old := c.fps[owner], c.lists[owner]
	i := len(old)
	for ; i > 0; i-- {
		g := old[i-1]
		if gd := fingerprint.Distance(self, c.fp(g)); gd < dist || gd == dist && g.Name() < d.Name() {
			break
		}
	}
	if i < c.t { // else a radius tie that loses on name
		list := slices.Insert(slices.Clone(old), i, d)
		if len(list) > c.t {
			c.unlist(list[c.t], owner)
			list = list[:c.t]
		}
		c.put(owner, list)
	}
	return c.radius[owner]
}
