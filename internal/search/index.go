package search

import (
	"cmp"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fingerprint"
	"repro/internal/ir"
)

// Index is the Finder: a dense bounded-walk index over fingerprints.
// Candidates returns the exact (distance, name) top-t — what sorting
// every live fingerprint by distance from the query, ties by name,
// would give — but a query only visits the fingerprints whose size
// could still beat the running t-th best, and distance-scores only
// those a second, cheaper lower bound cannot reject.
//
// Every indexed function owns an int32 slot, and every distinct live
// fingerprint one cell: the fingerprint, stored once, and its members'
// slots in indexed-name order. The slab lists each cell once as a packed
// (size, cell, projection) entry sorted by (size, projection,
// fingerprint), so the walk reads it sequentially and touches a cell
// only to score it. A visit scores the cell once and admits its members
// by name; they are all at one distance from the query, so the first
// member that loses on name ends the visit. Nothing on the query path
// touches a map beyond the one lookup of the query's own slot, calls Name() or allocates per visited cell, and
// nothing depends on insertion order or slot numbers — two indexes over
// the same functions answer identically and do identical work.
//
// Both bounds are admissible (they never exceed fingerprint.Distance),
// so everything they skip is provably outside the top-t:
//
//   - size: Distance(a, b) >= |a.Size - b.Size|, because the opcode
//     counts sum to the size. The walk moves outward from the query's
//     cell in size order and stops once the gap exceeds the radius.
//   - projection: the opcode enum is partitioned into projLanes-1 fixed
//     groups and each group's counts are summed into one saturating
//     8-bit lane, the block count into the last. |Σa − Σb| <= Σ|a − b|
//     per group and saturation is 1-Lipschitz, so the L1 distance
//     between two projections never exceeds the distance between the
//     fingerprints. projDistance computes it for all eight lanes at once.
type Index struct {
	mu     sync.RWMutex
	slotOf map[*ir.Function]int32
	funcs  []*ir.Function // slot -> function; nil while the slot is free
	// names holds the name each slot was indexed under. Ordering and
	// tie-breaks read it, never f.Name(): a rename between Add and
	// Remove must not unsort a cell.
	names  []string
	cellOf []int32 // slot -> the cell it is a member of
	free   []int32

	cells     []cell
	freeCells []int32
	// byHash maps a fingerprint's hash to the first cell with that hash;
	// cells whose fingerprints collide chain through cell.next.
	byHash map[uint64]int32
	// slab holds one entry per live cell, sorted by compareSlab.
	slab []slabEntry
	// touched lists the cells a batch in progress has changed, each
	// flagged unsorted until settleLocked.
	touched []int32
	built   int

	// Query accounting is atomic so concurrent queries share only the
	// read lock.
	queries, scanned, probed, queryNS atomic.Int64
}

// cell is one distinct fingerprint and the slots indexed with it.
type cell struct {
	fp    fingerprint.Fingerprint
	entry slabEntry // the cell's entry in the slab
	hash  uint64
	next  int32 // next cell in fp's hash chain, -1 at its end
	// members lists the cell's slots by (indexed name, slot). A batch
	// appends and re-sorts once, flagging the cell unsorted meanwhile.
	members  []int32
	unsorted bool
}

// slabEntry is a cell's place in the walk.
type slabEntry struct {
	size int32
	cell int32
	proj uint64
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

// projDistance is the L1 distance between two packed projections,
// taken on all lanes at once. The even and the odd byte lanes are spread
// into 16-bit lanes; biasing a's lanes by 0x100 keeps each lane of
// a − b in [0x01, 0x1ff], so one subtraction takes every difference
// without a borrow crossing lanes, and flipping the bias bit back turns
// each into a − b as a 9-bit two's complement number. Its sign (bit 8)
// selects a negation within the lane's 9 bits, which leaves |a − b| <=
// 0xff in every lane; one multiplication then sums the lanes into the
// top one, where eight such terms cannot overflow.
func projDistance(a, b uint64) int32 {
	const even, bias, one = 0x00ff00ff00ff00ff, 0x0100010001000100, 0x0001000100010001
	ve := ((a&even | bias) - b&even) ^ bias
	vo := ((a>>8&even | bias) - b>>8&even) ^ bias
	ne, no := ve>>8&one, vo>>8&one
	return int32(((ve ^ ne*0x1ff) + ne + (vo ^ no*0x1ff) + no) * one >> 48)
}

// cellHash keys a fingerprint in byHash; tests swap in a colliding one.
var cellHash = fpHash

// fpHash mixes a fingerprint into 64 bits.
func fpHash(fp *fingerprint.Fingerprint) uint64 {
	const prime = 0x9e3779b97f4a7c15
	h := uint64(uint32(fp.Blocks))
	for i := 0; i < len(fp.OpCount); i += 2 {
		h = (h ^ (uint64(uint32(fp.OpCount[i])) | uint64(uint32(fp.OpCount[i+1]))<<32)) * prime
		h ^= h >> 29
	}
	return h
}

// newIndex is the bulk constructor behind New: every function is
// fingerprinted and counted in Stats.Built.
func newIndex(funcs []*ir.Function) *Index {
	l := &Index{slotOf: make(map[*ir.Function]int32, len(funcs)), byHash: map[uint64]int32{}}
	for _, f := range funcs {
		if f.IsDecl() {
			continue
		}
		if _, ok := l.slotOf[f]; ok {
			continue // duplicate input entry
		}
		l.linkLocked(l.indexLocked(f), true)
	}
	l.settleLocked()
	return l
}

// indexLocked fills f's slot — its existing one on a re-index, else a
// recycled or fresh one — with the name f carries now, and points it at
// the cell of f's fingerprint, creating the cell if the fingerprint is
// new. The caller has unlinked a re-indexed slot from its old cell and
// links the slot into its new one.
func (l *Index) indexLocked(f *ir.Function) int32 {
	fp := fingerprint.New(f)
	l.built++
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
		l.cellOf = append(l.cellOf, 0)
	}
	l.slotOf[f] = slot
	l.funcs[slot] = f
	l.names[slot] = f.Name()
	l.cellOf[slot] = l.cellFor(fp)
	return slot
}

// cellFor returns fp's cell, creating an empty one outside the slab if
// no live cell holds fp.
func (l *Index) cellFor(fp *fingerprint.Fingerprint) int32 {
	h := cellHash(fp)
	head, ok := l.byHash[h]
	if ok {
		for c := head; c >= 0; c = l.cells[c].next {
			if l.cells[c].fp == *fp {
				return c
			}
		}
	} else {
		head = -1
	}
	var c int32
	if n := len(l.freeCells); n > 0 {
		c = l.freeCells[n-1]
		l.freeCells = l.freeCells[:n-1]
	} else {
		c = int32(len(l.cells))
		l.cells = append(l.cells, cell{})
	}
	l.cells[c] = cell{
		fp:    *fp,
		entry: slabEntry{size: fp.Size, cell: c, proj: project(fp)},
		hash:  h, next: head, members: l.cells[c].members[:0],
	}
	l.byHash[h] = c
	return c
}

// dropCellLocked frees the empty cell c; its slab entry is the
// caller's.
func (l *Index) dropCellLocked(c int32) {
	x := &l.cells[c]
	if head := l.byHash[x.hash]; head == c {
		if x.next < 0 {
			delete(l.byHash, x.hash)
		} else {
			l.byHash[x.hash] = x.next
		}
	} else {
		p := head
		for l.cells[p].next != c {
			p = l.cells[p].next
		}
		l.cells[p].next = x.next
	}
	x.members = x.members[:0]
	l.freeCells = append(l.freeCells, c)
}

// compareSlab is the walk's total order over distinct fingerprints:
// size, projection, then the fingerprint itself — a function of the
// fingerprints alone.
func (l *Index) compareSlab(a, b slabEntry) int {
	if c := cmp.Compare(a.size, b.size); c != 0 {
		return c
	}
	if c := cmp.Compare(a.proj, b.proj); c != 0 {
		return c
	}
	fa, fb := &l.cells[a.cell].fp, &l.cells[b.cell].fp
	if c := slices.Compare(fa.OpCount[:], fb.OpCount[:]); c != 0 {
		return c
	}
	return cmp.Compare(fa.Blocks, fb.Blocks)
}

// positionLocked returns where cell c's entry sits in the slab, or
// where it would be inserted.
func (l *Index) positionLocked(c int32) int {
	i, _ := slices.BinarySearchFunc(l.slab, l.cells[c].entry, l.compareSlab)
	return i
}

// compareMembers orders a cell's members: indexed name, then slot
// (names are unique within a module; the slot only keeps the order
// total if two stale names ever coincide).
func (l *Index) compareMembers(a, b int32) int {
	if c := strings.Compare(l.names[a], l.names[b]); c != 0 {
		return c
	}
	return cmp.Compare(a, b)
}

// linkLocked makes the freshly indexed slot a member of its cell. Alone
// (Add) the member is inserted in name order and a new cell enters the
// slab at its sorted position; in a batch it is appended, a new cell's
// entry too, and settleLocked restores both orders once.
func (l *Index) linkLocked(slot int32, batch bool) {
	c := l.cellOf[slot]
	x := &l.cells[c]
	isNew := len(x.members) == 0 && !x.unsorted
	if !batch {
		if isNew {
			l.slab = slices.Insert(l.slab, l.positionLocked(c), l.cells[c].entry)
		}
		i, _ := slices.BinarySearchFunc(x.members, slot, l.compareMembers)
		x.members = slices.Insert(x.members, i, slot)
		return
	}
	if isNew {
		l.slab = append(l.slab, l.cells[c].entry)
	}
	l.touch(c)
	x.members = append(x.members, slot)
}

// unlinkLocked drops slot from its cell. Alone (Add, Remove) an emptied
// cell leaves the slab at once; in a batch it stays until settleLocked,
// so a later member of the batch can refill it.
func (l *Index) unlinkLocked(slot int32, batch bool) {
	c := l.cellOf[slot]
	x := &l.cells[c]
	i := slices.Index(x.members, slot)
	x.members = slices.Delete(x.members, i, i+1)
	switch {
	case batch:
		l.touch(c)
	case len(x.members) == 0:
		i := l.positionLocked(c)
		l.slab = slices.Delete(l.slab, i, i+1)
		l.dropCellLocked(c)
	}
}

// touch records c in the batch in progress.
func (l *Index) touch(c int32) {
	if x := &l.cells[c]; !x.unsorted {
		x.unsorted = true
		l.touched = append(l.touched, c)
	}
}

// settleLocked ends a batch: every touched cell re-sorts its members or,
// left empty, is dropped, and the slab is compacted and re-sorted once.
func (l *Index) settleLocked() {
	if len(l.touched) == 0 {
		return
	}
	for _, c := range l.touched {
		x := &l.cells[c]
		x.unsorted = false
		if len(x.members) == 0 {
			l.dropCellLocked(c)
		} else {
			slices.SortFunc(x.members, l.compareMembers)
		}
	}
	l.touched = l.touched[:0]
	l.slab = slices.DeleteFunc(l.slab, func(e slabEntry) bool { return len(l.cells[e.cell].members) == 0 })
	slices.SortFunc(l.slab, l.compareSlab)
}

// Add (re-)indexes f incrementally: a sorted insertion into its cell,
// and into the slab when the fingerprint is new (bulk construction and
// AddBatch sort once instead).
func (l *Index) Add(f *ir.Function) {
	if f.IsDecl() {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if slot, ok := l.slotOf[f]; ok {
		l.unlinkLocked(slot, false)
	}
	l.linkLocked(l.indexLocked(f), false)
}

// AddBatch (re-)indexes a batch of functions under one lock
// acquisition, then settles the touched cells and sorts the slab once —
// O((n+k) log n) against Add's O(k·n) of sorted insertions. Results are
// identical to k sequential Adds. A batch of one takes Add's path.
func (l *Index) AddBatch(fs []*ir.Function) {
	if len(fs) == 1 {
		l.Add(fs[0])
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, f := range fs {
		if f.IsDecl() {
			continue
		}
		if slot, ok := l.slotOf[f]; ok {
			l.unlinkLocked(slot, true)
		}
		l.linkLocked(l.indexLocked(f), true)
	}
	l.settleLocked()
}

// Remove drops f from future candidate lists and recycles its slot.
func (l *Index) Remove(f *ir.Function) {
	l.mu.Lock()
	defer l.mu.Unlock()
	slot, ok := l.slotOf[f]
	if !ok {
		return
	}
	l.unlinkLocked(slot, false)
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

// query is one Candidates call in progress.
type query struct {
	l       *Index
	self    int32
	t       int
	fp      *fingerprint.Fingerprint
	proj    uint64
	radius  int32 // the t-th best distance, inf until t are found
	best    []scored
	scanned int64
}

// score distance-scores the cell of a slab entry that passed the
// projection bound, admitting its members if it is within the radius.
func (q *query) score(e *slabEntry) {
	q.scanned++
	if d := fingerprint.DistanceWithin(q.fp, &q.l.cells[e.cell].fp, q.radius); d <= q.radius {
		q.admit(e.cell, d)
	}
}

// admit offers cell c's members, all at distance d, in name order until
// one loses: the members after it have larger names.
func (q *query) admit(c, d int32) {
	names := q.l.names
	for _, g := range q.l.cells[c].members {
		if g == q.self {
			continue
		}
		// Insert in (distance, name) order, shifting in place: best never
		// outgrows its capacity t, and a full list drops its last entry.
		i := len(q.best)
		for i > 0 && (q.best[i-1].d > d || q.best[i-1].d == d && names[q.best[i-1].slot] > names[g]) {
			i--
		}
		if i == q.t {
			return // a radius tie that loses on name
		}
		if len(q.best) < q.t {
			q.best = q.best[:len(q.best)+1]
		}
		copy(q.best[i+1:], q.best[i:])
		q.best[i] = scored{slot: g, d: d}
		if len(q.best) == q.t {
			q.radius = q.best[q.t-1].d
		}
	}
}

// within reports whether a cell at size gap g can still enter: g is a
// lower bound on its distance, and distinct fingerprints are at distance
// >= 1, so once the radius is 0 no cell but the query's own can.
func (q *query) within(g int32) bool { return g <= q.radius && q.radius > 0 }

// Candidates returns up to t candidate partners for f: the true
// fingerprint top-t in (distance, name) order. The walk starts
// at f's own cell, whose other members are at distance 0, and moves
// outward through the slab one equal-size run at a time, always taking
// the side with the smaller size gap; it ends when that gap exceeds the
// distance of the current t-th best, since the gap lower-bounds the
// distance of everything beyond. A visited cell is rejected on its
// projection before the full metric runs. Ties at the radius are still
// scored — the name tie-break can admit them.
func (l *Index) Candidates(f *ir.Function, t int) []*ir.Function {
	start := time.Now()
	var out []*ir.Function
	var probed, scanned int64
	l.mu.RLock()
	if self, ok := l.slotOf[f]; ok && t > 0 {
		const inf = int32(1<<31 - 1)
		var buf [16]scored
		q := query{l: l, self: self, t: t, radius: inf, best: buf[:0]}
		if t > len(buf) {
			q.best = make([]scored, 0, t)
		}
		home := l.cellOf[self]
		q.admit(home, 0)
		pos := l.positionLocked(home)
		slab := l.slab
		q.fp, q.proj = &l.cells[home].fp, slab[pos].proj
		size := slab[pos].size
		// slab[:lo] and slab[hi:] are the sides still to visit.
		lo, hi := pos, pos+1
		for {
			gLo, gHi := inf, inf
			if lo > 0 {
				gLo = size - slab[lo-1].size
			}
			if hi < len(slab) {
				gHi = slab[hi].size - size
			}
			if lo > 0 && gLo <= gHi && q.within(gLo) {
				run := slab[lo-1].size
				for ; lo > 0 && slab[lo-1].size == run && q.within(gLo); lo-- {
					probed++
					if e := &slab[lo-1]; projDistance(q.proj, e.proj) <= q.radius {
						q.score(e)
					}
				}
			} else if hi < len(slab) && gHi < gLo && q.within(gHi) {
				run := slab[hi].size
				for ; hi < len(slab) && slab[hi].size == run && q.within(gHi); hi++ {
					probed++
					if e := &slab[hi]; projDistance(q.proj, e.proj) <= q.radius {
						q.score(e)
					}
				}
			} else {
				break
			}
		}
		scanned = q.scanned
		out = make([]*ir.Function, len(q.best))
		for i, s := range q.best {
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
// instruction count, ties by indexed name (paper §5.5's attempt order).
func (l *Index) Order() []*ir.Function {
	l.mu.RLock()
	defer l.mu.RUnlock()
	slots := make([]int32, 0, len(l.slotOf))
	for slot, f := range l.funcs {
		if f != nil {
			slots = append(slots, int32(slot))
		}
	}
	slices.SortFunc(slots, func(a, b int32) int {
		if c := cmp.Compare(l.cells[l.cellOf[b]].fp.Size, l.cells[l.cellOf[a]].fp.Size); c != 0 {
			return c
		}
		return l.compareMembers(a, b)
	})
	out := make([]*ir.Function, len(slots))
	for i, slot := range slots {
		out[i] = l.funcs[slot]
	}
	return out
}

// Stats returns the accumulated accounting.
func (l *Index) Stats() Stats {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return Stats{
		Queries:   int(l.queries.Load()),
		Scanned:   int(l.scanned.Load()),
		Probed:    int(l.probed.Load()),
		QueryTime: time.Duration(l.queryNS.Load()),
		Indexed:   len(l.slotOf),
		Built:     l.built,
	}
}
