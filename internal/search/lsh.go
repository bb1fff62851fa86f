package search

import (
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fingerprint"
	"repro/internal/ir"
)

// LSH is the indexed exact Finder. The name is historical (it once
// seeded its top-t from minhash buckets; KindLSH and the "lsh" flag
// value are part of the public surface): today it is a dense
// bounded-walk index with no sketch and no hashing. Candidates returns
// exactly Exact's (distance, name) top-t, but a query only visits the
// functions whose size could still beat the running t-th best, and
// distance-scores only those a second, cheaper lower bound cannot
// reject.
//
// Every indexed function owns an int32 slot. Fingerprints, the names
// the functions were indexed under and a packed projection of each
// fingerprint live in slot-indexed slabs; walk lists the live slots by
// (size, name). Nothing on the query path touches a map beyond the one
// lookup of the query's own slot, calls Name() or allocates per visited
// entry, and nothing depends on insertion order — two indexes over the
// same functions answer identically and do identical work.
//
// Both bounds are admissible (they never exceed fingerprint.Distance),
// so everything they skip is provably outside the top-t:
//
//   - size: Distance(a, b) >= |a.Size - b.Size|, because the opcode
//     counts sum to the size. The walk moves outward from the query's
//     position in size order and stops once the gap exceeds the radius.
//   - projection: the opcode enum is partitioned into projLanes-1 fixed
//     groups and each group's counts are summed into one saturating
//     8-bit lane, the block count into the last. |Σa − Σb| <= Σ|a − b|
//     per group and saturation is 1-Lipschitz, so the L1 distance
//     between two projections never exceeds the distance between the
//     fingerprints. It costs eight byte subtractions against the 64-term
//     sweep of the real metric.
type LSH struct {
	// view, when non-nil, resolves the body actually fingerprinted for
	// each function (see NewIndexed); identity, ordering and removal
	// stay keyed by the original function.
	view BodySource

	mu     sync.RWMutex
	slotOf map[*ir.Function]int32
	funcs  []*ir.Function // slot -> function; nil while the slot is free
	// names holds the name each slot was indexed under. Ordering and
	// tie-breaks read it, never f.Name(): a rename between Add and
	// Remove must not unsort walk.
	names []string
	fps   []fingerprint.Fingerprint
	proj  []uint64
	free  []int32
	// walk holds one entry per live slot, size<<32 | slot, sorted by
	// (size, indexed name, slot).
	walk  []uint64
	built int

	// Query accounting is atomic so concurrent queries share only the
	// read lock.
	queries, scanned, probed, queryNS atomic.Int64
}

// projLanes is the number of 8-bit lanes in a packed projection.
const projLanes = 8

// project packs fp into projLanes saturating byte lanes: opcode op
// feeds lane op mod (projLanes-1), the block count the top lane.
// Striding the enum (rather than grouping neighbours) keeps related
// opcodes — add/sub, load/store — in different lanes, where their
// differences cannot cancel.
func project(fp *fingerprint.Fingerprint) uint64 {
	var lanes [projLanes]int32
	for op, c := range fp.OpCount {
		lanes[op%(projLanes-1)] += c
	}
	lanes[projLanes-1] = fp.Blocks
	var p uint64
	for i, v := range lanes {
		if v > 0xff {
			v = 0xff
		}
		p |= uint64(v) << (8 * i)
	}
	return p
}

// projDistance is the L1 distance between two packed projections.
func projDistance(a, b uint64) int32 {
	var d int32
	for i := 0; i < projLanes; i++ {
		x := int32(a&0xff) - int32(b&0xff)
		m := x >> 31
		d += (x ^ m) - m
		a >>= 8
		b >>= 8
	}
	return d
}

func entrySize(e uint64) int32 { return int32(e >> 32) }
func entrySlot(e uint64) int32 { return int32(uint32(e)) }

// entry is slot's walk entry under the size it is indexed with.
func (l *LSH) entry(slot int32) uint64 {
	return uint64(uint32(l.fps[slot].Size))<<32 | uint64(uint32(slot))
}

// newLSH is the bulk constructor behind New, NewIndexed and Restore:
// functions covered by prior adopt their fingerprint, everything else
// is fingerprinted (through the view lens when one is set) and counted
// in Stats.Built.
func newLSH(funcs []*ir.Function, view BodySource, prior map[*ir.Function]*fingerprint.Fingerprint) *LSH {
	l := &LSH{view: view, slotOf: make(map[*ir.Function]int32, len(funcs))}
	for _, f := range funcs {
		if f.IsDecl() {
			continue
		}
		if _, ok := l.slotOf[f]; ok {
			continue // duplicate input entry
		}
		l.indexLocked(f, prior[f])
	}
	l.rebuildWalkLocked()
	return l
}

// export copies the live fingerprints for snapshotting.
func (l *LSH) export() map[*ir.Function]*fingerprint.Fingerprint {
	l.mu.RLock()
	defer l.mu.RUnlock()
	out := make(map[*ir.Function]*fingerprint.Fingerprint, len(l.slotOf))
	for f, slot := range l.slotOf {
		fp := l.fps[slot]
		out[f] = &fp
	}
	return out
}

// indexLocked fills f's slot — its existing one on a re-index, else a
// recycled or fresh one — with fp (computed here when nil), the name f
// carries now and the projection. The caller maintains walk.
func (l *LSH) indexLocked(f *ir.Function, fp *fingerprint.Fingerprint) int32 {
	if fp == nil {
		body := f
		if l.view != nil {
			body = l.view.IndexBody(f)
		}
		fp = fingerprint.New(body)
		l.built++
	}
	slot, ok := l.slotOf[f]
	switch {
	case ok:
	case len(l.free) > 0:
		slot = l.free[len(l.free)-1]
		l.free = l.free[:len(l.free)-1]
	default:
		slot = int32(len(l.funcs))
		l.funcs = append(l.funcs, nil)
		l.names = append(l.names, "")
		l.fps = append(l.fps, fingerprint.Fingerprint{})
		l.proj = append(l.proj, 0)
	}
	l.slotOf[f] = slot
	l.funcs[slot] = f
	l.names[slot] = f.Name()
	l.fps[slot] = *fp
	l.proj[slot] = project(fp)
	return slot
}

// compareEntries is walk's total order: size, then indexed name, then
// slot (names are unique within a module; the slot only keeps the order
// total if two stale names ever coincide).
func (l *LSH) compareEntries(a, b uint64) int {
	if sa, sb := entrySize(a), entrySize(b); sa != sb {
		return int(sa) - int(sb)
	}
	if c := strings.Compare(l.names[entrySlot(a)], l.names[entrySlot(b)]); c != 0 {
		return c
	}
	return int(entrySlot(a)) - int(entrySlot(b))
}

// rebuildWalkLocked re-derives walk from the slot table: one
// O(n log n) sort in place of per-function sorted insertions, which is
// what keeps bulk construction and AddBatch from going quadratic.
func (l *LSH) rebuildWalkLocked() {
	l.walk = l.walk[:0]
	for slot, f := range l.funcs {
		if f != nil {
			l.walk = append(l.walk, l.entry(int32(slot)))
		}
	}
	slices.SortFunc(l.walk, l.compareEntries)
}

// positionLocked returns where slot's entry sits in walk, or where it
// would be inserted.
func (l *LSH) positionLocked(slot int32) int {
	i, _ := slices.BinarySearchFunc(l.walk, l.entry(slot), l.compareEntries)
	return i
}

// Add (re-)indexes f incrementally: a sorted insertion into walk (bulk
// construction and AddBatch sort once instead).
func (l *LSH) Add(f *ir.Function) {
	if f.IsDecl() {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if slot, ok := l.slotOf[f]; ok {
		// Unlink under the key the slot was indexed with, before
		// indexLocked overwrites it.
		i := l.positionLocked(slot)
		l.walk = slices.Delete(l.walk, i, i+1)
	}
	slot := l.indexLocked(f, nil)
	l.walk = slices.Insert(l.walk, l.positionLocked(slot), l.entry(slot))
}

// AddBatch (re-)indexes a batch of functions under one lock
// acquisition and re-sorts walk once — O((n+k) log n) against Add's
// O(k·n) of sorted insertions. Results are identical to k sequential
// Adds.
func (l *LSH) AddBatch(fs []*ir.Function) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, f := range fs {
		if !f.IsDecl() {
			l.indexLocked(f, nil)
		}
	}
	l.rebuildWalkLocked()
}

// Remove drops f from future candidate lists and recycles its slot.
func (l *LSH) Remove(f *ir.Function) {
	l.mu.Lock()
	defer l.mu.Unlock()
	slot, ok := l.slotOf[f]
	if !ok {
		return
	}
	i := l.positionLocked(slot)
	l.walk = slices.Delete(l.walk, i, i+1)
	delete(l.slotOf, f)
	l.funcs[slot] = nil
	l.names[slot] = ""
	l.free = append(l.free, slot)
}

// scored is one entry of a query's running top-t.
type scored struct {
	slot int32
	d    int32
}

// Candidates returns up to t candidate partners for f: the true
// fingerprint top-t in Exact's (distance, name) order. The walk starts
// at f's own position in size order and alternates outward, always
// taking the side with the smaller size gap; it ends when that gap
// exceeds the distance of the current t-th best, since the gap
// lower-bounds the distance of everything beyond. A visited entry is
// rejected on its projection before the full metric runs. Ties at the
// radius are still scored — the name tie-break can admit them.
func (l *LSH) Candidates(f *ir.Function, t int) []*ir.Function {
	start := time.Now()
	var out []*ir.Function
	var probed, scanned int64
	l.mu.RLock()
	if self, ok := l.slotOf[f]; ok && t > 0 {
		var buf [16]scored
		best := buf[:0]
		if t >= len(buf) {
			best = make([]scored, 0, t+1)
		}
		const inf = int32(1<<31 - 1)
		radius := inf
		selfFP, selfProj, selfSize := &l.fps[self], l.proj[self], l.fps[self].Size
		pos := l.positionLocked(self)
		lo, hi := pos-1, pos+1
		for lo >= 0 || hi < len(l.walk) {
			dLo, dHi := inf, inf
			if lo >= 0 {
				dLo = selfSize - entrySize(l.walk[lo])
			}
			if hi < len(l.walk) {
				dHi = entrySize(l.walk[hi]) - selfSize
			}
			var g int32
			if dLo <= dHi {
				if dLo > radius {
					break
				}
				g = entrySlot(l.walk[lo])
				lo--
			} else {
				if dHi > radius {
					break
				}
				g = entrySlot(l.walk[hi])
				hi++
			}
			probed++
			if projDistance(selfProj, l.proj[g]) > radius {
				continue
			}
			scanned++
			d := fingerprint.DistanceWithin(selfFP, &l.fps[g], radius)
			if d > radius {
				continue
			}
			// Insert in (distance, name) order; best is at most t+1 long.
			i := len(best)
			for i > 0 && (best[i-1].d > d || best[i-1].d == d && l.names[best[i-1].slot] > l.names[g]) {
				i--
			}
			if i == t {
				continue // a radius tie that loses on name
			}
			best = slices.Insert(best, i, scored{slot: g, d: d})
			if len(best) > t {
				best = best[:t]
			}
			if len(best) == t {
				radius = best[t-1].d
			}
		}
		out = make([]*ir.Function, len(best))
		for i, s := range best {
			out[i] = l.funcs[s.slot]
		}
	}
	l.mu.RUnlock()
	l.queries.Add(1)
	l.probed.Add(probed)
	l.scanned.Add(scanned)
	l.queryNS.Add(int64(time.Since(start)))
	return out
}

// Order returns the indexed functions sorted largest-first by
// instruction count (ties by indexed name), matching Exact's attempt
// order: walk's equal-size runs, last run first.
func (l *LSH) Order() []*ir.Function {
	l.mu.RLock()
	defer l.mu.RUnlock()
	out := make([]*ir.Function, 0, len(l.walk))
	for hi := len(l.walk); hi > 0; {
		lo := hi - 1
		for lo > 0 && entrySize(l.walk[lo-1]) == entrySize(l.walk[hi-1]) {
			lo--
		}
		for _, e := range l.walk[lo:hi] {
			out = append(out, l.funcs[entrySlot(e)])
		}
		hi = lo
	}
	return out
}

// Stats returns the accumulated accounting.
func (l *LSH) Stats() Stats {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return Stats{
		Queries:   int(l.queries.Load()),
		Scanned:   int(l.scanned.Load()),
		Probed:    int(l.probed.Load()),
		QueryTime: time.Duration(l.queryNS.Load()),
		Indexed:   len(l.walk),
		Built:     l.built,
	}
}
