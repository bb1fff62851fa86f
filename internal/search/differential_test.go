package search

import (
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/corpus"
	"repro/internal/fingerprint"
	"repro/internal/ir"
	"repro/internal/synth"
)

// sameLists fails unless both finders serve identical candidate lists
// for every stride-th function of want's order.
func sameLists(t testing.TB, want, got Finder, topT, stride int, label string) {
	t.Helper()
	for i, f := range want.Order() {
		if i%stride == 0 {
			sameList(t, want, got, f, topT, label)
		}
	}
}

func sameList(t testing.TB, want, got Finder, f *ir.Function, topT int, label string) {
	t.Helper()
	w := want.Candidates(f, topT)
	g := got.Candidates(f, topT)
	if len(w) != len(g) {
		t.Fatalf("%s: %s t=%d: list length %d, want %d", label, f.Name(), topT, len(g), len(w))
	}
	for i := range w {
		if w[i] != g[i] {
			t.Fatalf("%s: %s t=%d: candidate %d is %s, want %s", label, f.Name(), topT, i, g[i].Name(), w[i].Name())
		}
	}
}

// finderOps drives the specification finder and the Index through one
// stream of mutations over a fixed pool of functions — the op alphabet
// the mutation storm and FuzzFinderOps share.
type finderOps struct {
	t          testing.TB
	pool       []*ir.Function
	fps        []fingerprint.Fingerprint // pool[i]'s
	thresholds []int
	live       []bool
	// saved[i] is pool[i]'s body from before op forward rewrote it into
	// a forwarder; nil when it has not.
	saved    []*ir.Function
	nLive    int
	peakLive int
	renames  int
	spec     *specFinder
	index    *Index
}

var (
	diffThresholds = []int{1, 5, 10}
	// tinyThresholds are the ones the duplicate-heavy tiny shape is
	// compared at: the tiny8k shape's own t values plus diffThresholds.
	tinyThresholds = []int{1, 3, 5, 8, 10}
)

// newFinderOps indexes the first indexed functions of pool in both
// finders; the rest are a reserve the ops may add later.
func newFinderOps(t testing.TB, pool []*ir.Function, indexed int, thresholds []int) *finderOps {
	o := &finderOps{t: t, pool: pool, thresholds: thresholds,
		live: make([]bool, len(pool)), saved: make([]*ir.Function, len(pool))}
	for i := 0; i < indexed; i++ {
		o.setLive(i, listed(pool[i]))
	}
	for _, f := range pool {
		o.fps = append(o.fps, *fingerprint.New(f))
	}
	o.spec = newSpec(pool[:indexed])
	o.index = newIndex(pool[:indexed])
	return o
}

// cellOf lists the pool indices whose fingerprint is pool[a]'s: the
// members of its cell whenever they are all indexed.
func (o *finderOps) cellOf(a int) []int {
	var out []int
	for i := range o.pool {
		if o.fps[i] == o.fps[a] {
			out = append(out, i)
		}
	}
	return out
}

// rename gives f a fresh name, unique across the pool, that sorts
// before or after every other name of its cell.
func (o *finderOps) rename(f *ir.Function, last bool) {
	o.renames++
	prefix := 'a'
	if last {
		prefix = 'z'
	}
	f.SetName(fmt.Sprintf("%c%d_%s", prefix, o.renames, f.Name()))
}

// add re-indexes pool[i] in both finders, alone or as a batch. A
// declaration or a forwarding body comes out unlisted.
func (o *finderOps) add(batch bool, is ...int) {
	fs := make([]*ir.Function, len(is))
	for k, i := range is {
		fs[k] = o.pool[i]
		o.setLive(i, listed(o.pool[i]))
	}
	if batch {
		o.spec.AddBatch(fs)
		o.index.AddBatch(fs)
		return
	}
	for _, f := range fs {
		o.spec.Add(f)
		o.index.Add(f)
	}
}

// edit rewrites f's body into a copy of the first pool function from
// pool[b] on that shares f's signature (f's own body when none does).
func (o *finderOps) edit(f *ir.Function, b int) {
	if donor := o.sameSig(f, b); donor != f {
		f.DetachBody()
		ir.CloneFunctionInto(f, donor)
	}
}

// sameSig is the first pool function from pool[b] on that shares f's
// signature, or f itself when none does.
func (o *finderOps) sameSig(f *ir.Function, b int) *ir.Function {
	for k := range o.pool {
		if g := o.pool[(b+k)%len(o.pool)]; g != f && ir.TypesEqual(g.Sig(), f.Sig()) {
			return g
		}
	}
	return f
}

// forward rewrites pool[a] into a forwarder to another pool function
// of its signature, saving its body, or — when it already was — gives
// it its saved body back.
func (o *finderOps) forward(a, b int) {
	f := o.pool[a]
	if body := o.saved[a]; body != nil {
		f.DetachBody()
		ir.CloneFunctionInto(f, body)
		o.saved[a] = nil
	} else {
		o.saved[a], _ = ir.CloneFunction(f, f.Name())
		ir.BuildForwarder(f, o.sameSig(f, b), f.ParamValues())
	}
	o.fps[a] = *fingerprint.New(f)
}

func (o *finderOps) setLive(i int, live bool) {
	if o.live[i] != live {
		o.live[i] = live
		if live {
			o.nLive++
			o.peakLive = max(o.peakLive, o.nLive)
		} else {
			o.nLive--
		}
	}
}

const numFinderOps = 11

// apply runs op kind (mod numFinderOps) on pool[a], with b as the op's
// parameter: remove, (re-)add, rename then re-add, AddBatch of up to
// eight functions starting there, empty pool[a]'s cell, refill it in one
// batch, rename its first member to sort last, Add pool[a] and then
// batch it again with its cell (twice over, a duplicate entry) before
// one more Add, or rewrite pool[a]'s body into a copy of another's
// (edit) and re-index it — in one batch with the cell it leaves, or
// alone — or rewrite pool[a] into a forwarding body and, the next time,
// back (forward) and re-index it, alone or in one batch with the cell it
// left or joins.
func (o *finderOps) apply(kind, a, b int) {
	a %= len(o.pool)
	f := o.pool[a]
	switch kind % numFinderOps {
	case 0:
		o.spec.Remove(f)
		o.index.Remove(f)
		o.setLive(a, false)
	case 1:
		o.add(false, a)
	case 2:
		o.rename(f, o.renames%2 == 1)
		o.add(false, a)
	case 3:
		var batch []int
		for i := 0; i <= b%8; i++ {
			batch = append(batch, (a+i*7)%len(o.pool))
		}
		o.add(true, batch...)
	case 4:
		for _, i := range o.cellOf(a) {
			o.spec.Remove(o.pool[i])
			o.index.Remove(o.pool[i])
			o.setLive(i, false)
		}
	case 5:
		o.add(true, o.cellOf(a)...)
	case 6:
		first := -1
		for _, i := range o.cellOf(a) {
			if o.live[i] && (first < 0 || o.pool[i].Name() < o.pool[first].Name()) {
				first = i
			}
		}
		if first >= 0 {
			o.rename(o.pool[first], true)
			o.add(false, first)
		}
	case 7:
		cell := o.cellOf(a)
		o.add(false, a)
		o.add(true, append(cell, cell...)...)
		o.add(false, cell[b%len(cell)])
	case 8, 9:
		left := o.cellOf(a)
		o.edit(f, b)
		o.fps[a] = *fingerprint.New(f)
		if kind%numFinderOps == 8 {
			o.add(true, left...)
		} else {
			o.add(false, a)
		}
	case 10:
		left := o.cellOf(a)
		o.forward(a, b)
		if b%2 == 0 {
			o.add(true, append(left, o.cellOf(a)...)...)
		} else {
			o.add(false, a)
		}
	}
}

// check compares pool[i]'s lists at every threshold (a function that is
// not indexed must get nil from both) and whether it shares its
// fingerprint.
func (o *finderOps) check(i int, label string) {
	o.t.Helper()
	o.checkFunc(o.pool[i%len(o.pool)], label)
	o.checkShares(o.pool[i%len(o.pool)], label)
}

// checkShares compares f's Shares answer with the specification's.
func (o *finderOps) checkShares(f *ir.Function, label string) {
	o.t.Helper()
	if got, want := o.index.Shares(f), o.spec.Shares(f); got != want {
		o.t.Fatalf("%s: Shares(@%s) = %v, want %v", label, f.Name(), got, want)
	}
}

// checkFunc compares f's lists at every threshold with the prefixes of
// one specification list: the specification's top-t is by construction
// the first t entries of its full sort.
func (o *finderOps) checkFunc(f *ir.Function, label string) {
	o.t.Helper()
	want := o.spec.Candidates(f, slices.Max(o.thresholds))
	for _, topT := range o.thresholds {
		if got, w := o.index.Candidates(f, topT), want[:min(topT, len(want))]; !slices.Equal(got, w) {
			o.t.Fatalf("%s: %s t=%d: candidates %v, want %v", label, f.Name(), topT, names(got), names(w))
		}
	}
}

// sweep compares every stride-th live function at every threshold, the
// attempt order, and the slot accounting: slots are recycled before the
// slabs grow, so the slab length is the peak live count.
func (o *finderOps) sweep(stride int, label string) {
	o.t.Helper()
	want, got := o.spec.Order(), o.index.Order()
	for i, f := range want {
		if i%stride == 0 {
			o.checkFunc(f, label)
			o.checkShares(f, label)
		}
	}
	if len(want) != len(got) {
		o.t.Fatalf("%s: Order has %d entries, want %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			o.t.Fatalf("%s: Order[%d] is %s, want %s", label, i, got[i].Name(), want[i].Name())
		}
	}
	if st := o.index.Stats(); st.Indexed != o.nLive {
		o.t.Fatalf("%s: Indexed = %d, want %d", label, st.Indexed, o.nLive)
	}
	if got := len(o.index.funcs); got != o.peakLive {
		o.t.Fatalf("%s: %d slots allocated for a peak of %d live functions (slots not reused)", label, got, o.peakLive)
	}
	if err := o.index.checkCells(); err != nil {
		o.t.Fatalf("%s: %v", label, err)
	}
}

// checkCells verifies the cell structure against the slot table: one
// cell per distinct live fingerprint, holding exactly the slots indexed
// with it in (indexed name, slot) order and reachable through its hash;
// one slab entry per cell, carrying its size and projection, in strictly
// ascending compareSlab order.
func (l *Index) checkCells() error {
	l.mu.RLock()
	defer l.mu.RUnlock()
	members := map[int32][]int32{}
	for slot, f := range l.funcs {
		if f == nil {
			continue
		}
		c := l.cellOf[slot]
		if l.slotOf[f] != int32(slot) {
			return fmt.Errorf("slot %d holds @%s, which slotOf places in %d", slot, f.Name(), l.slotOf[f])
		}
		if fp := fingerprint.New(f); l.cells[c].fp != *fp {
			return fmt.Errorf("@%s sits in a cell of another fingerprint", f.Name())
		}
		members[c] = append(members[c], int32(slot))
	}
	if len(l.slab) != len(members) || len(l.slab)+len(l.freeCells) != len(l.cells) {
		return fmt.Errorf("%d slab entries for %d live cells, %d of %d cells free",
			len(l.slab), len(members), len(l.freeCells), len(l.cells))
	}
	for i, e := range l.slab {
		x := &l.cells[e.cell]
		want := members[e.cell]
		slices.SortFunc(want, l.compareMembers)
		if !slices.Equal(x.members, want) || x.unsorted {
			return fmt.Errorf("cell %d lists slots %v (unsorted %v), want %v", e.cell, x.members, x.unsorted, want)
		}
		if e != x.entry || e.size != x.fp.Size || e.proj != project(&x.fp) {
			return fmt.Errorf("slab entry %d carries size %d proj %#x for a cell of size %d proj %#x", i, e.size, e.proj, x.fp.Size, project(&x.fp))
		}
		if i > 0 && l.compareSlab(l.slab[i-1], e) >= 0 {
			return fmt.Errorf("slab entries %d and %d out of order", i-1, i)
		}
		found := false
		for c, ok := l.byHash[x.hash]; ok && c >= 0 && !found; c = l.cells[c].next {
			found = c == e.cell
		}
		if !found || x.hash != CellHash(&x.fp) {
			return fmt.Errorf("cell %d is not reachable through its hash", e.cell)
		}
	}
	return nil
}

// tinyCorpus is the benchmark's tiny8k shape — accessor-sized bodies
// with nothing to merge — which is tie-heavy: thousands of equal
// fingerprints whose order only the name tie-break decides, over names
// sharing long prefixes.
func tinyCorpus(n int) []*ir.Function {
	return corpus.Build(corpus.Config{Funcs: n, Seed: 7,
		CloneFrac: 1e-9, LibDupFrac: 1e-9, AvgSize: 8, MaxSize: 14}).Defined()
}

// TestLSHMatchesExact is exactness as equality: through a seeded storm
// of the finderOps alphabet — Remove, Add, rename+re-add, AddBatch, and
// the cell ops that empty, refill and re-order a cell — the Index's
// lists are element-wise the specification's full sort after every
// step, and over the whole index before and after: at t = 1, 3 and 8 on
// the duplicate-heavy tiny shape, at 1, 5 and 10 on the suite shapes.
func TestLSHMatchesExact(t *testing.T) {
	tiny, ops, stride := 2000, 400, 3
	if testing.Short() {
		tiny, ops = 500, 150
	}
	type pool struct {
		name       string
		funcs      []*ir.Function
		stride     int // sweep every stride-th function
		thresholds []int
	}
	pools := []pool{{"tiny", tinyCorpus(tiny), stride, tinyThresholds}}
	for _, p := range []synth.Profile{
		{Name: "templates", Seed: 101, Funcs: 160, MinSize: 4, AvgSize: 50, MaxSize: 300,
			CloneFrac: 0.36, FamilySize: 4, MutRate: 0.04, Loops: 0.5, Floats: 0.25},
		{Name: "clike", Seed: 102, Funcs: 140, MinSize: 4, AvgSize: 44, MaxSize: 300,
			CloneFrac: 0.14, FamilySize: 3, MutRate: 0.12, Loops: 0.5, Switches: 0.8},
		{Name: "sparse", Seed: 103, Funcs: 120, MinSize: 6, AvgSize: 48, MaxSize: 260,
			CloneFrac: 0.05, FamilySize: 2, MutRate: 0.12, Loops: 0.6},
	} {
		pools = append(pools, pool{p.Name, synth.Generate(p).Defined(), 1, diffThresholds})
	}
	for _, p := range pools {
		t.Run(p.name, func(t *testing.T) {
			// A tenth of the pool starts outside the index, so adds land
			// in slots earlier removals freed.
			o := newFinderOps(t, p.funcs, len(p.funcs)*9/10, p.thresholds)
			o.sweep(p.stride, "fresh index")
			rng := rand.New(rand.NewSource(11))
			for step := 0; step < ops; step++ {
				kind, a, b := rng.Intn(numFinderOps), rng.Intn(len(p.funcs)), rng.Intn(256)
				o.apply(kind, a, b)
				label := fmt.Sprintf("step %d (op %d on %d)", step, kind, a)
				o.check(a, label)
				for i := 0; i < 3; i++ {
					o.check(rng.Intn(len(p.funcs)), label)
				}
			}
			o.sweep(p.stride, "after the storm")
			st := o.index.Stats()
			t.Logf("%d functions: %.0f probed, %.1f scored per query", st.Indexed,
				float64(st.Probed)/float64(st.Queries), st.AvgScanned())
		})
	}
}

// TestLSHHashCollisions reruns the op storm with a cell hash that
// collides for every third size, so cells share hash chains and an
// emptied cell is unlinked from the middle of one.
func TestLSHHashCollisions(t *testing.T) {
	defer func(h func(*fingerprint.Fingerprint) uint64) { CellHash = h }(CellHash)
	CellHash = func(fp *fingerprint.Fingerprint) uint64 { return uint64(fp.Size % 3) }
	funcs := tinyCorpus(300)
	o := newFinderOps(t, funcs, 270, tinyThresholds)
	o.sweep(1, "fresh index")
	rng := rand.New(rand.NewSource(5))
	for step := 0; step < 300; step++ {
		kind, a, b := rng.Intn(numFinderOps), rng.Intn(len(funcs)), rng.Intn(256)
		o.apply(kind, a, b)
		label := fmt.Sprintf("step %d (op %d on %d)", step, kind, a)
		o.check(a, label)
		if step%25 == 0 {
			o.sweep(7, label)
		}
	}
	o.sweep(1, "after the storm")
}

// FuzzFinderOps feeds the same op alphabet from fuzz input: three bytes
// an op (kind, function, parameter), a comparison after each — the
// op's function's lists, and Shares for every pool function — and a
// full sweep at the end, over a clone-rich suite pool and over the tiny shape,
// whose cells hold up to six members.
func FuzzFinderOps(f *testing.F) {
	f.Add([]byte{0, 3, 0, 1, 3, 0, 2, 3, 0})                       // remove, re-add, rename one function
	f.Add([]byte{0, 1, 0, 0, 2, 0, 0, 5, 0, 1, 44, 0, 1, 45, 0})   // free slots, then fill them from the reserve
	f.Add([]byte{2, 9, 0, 2, 9, 0, 0, 9, 0, 3, 9, 7})              // rename twice, remove, batch it back
	f.Add([]byte{3, 0, 255, 3, 40, 3, 0, 47, 0, 2, 0, 0})          // batches over indexed and reserve functions
	f.Add([]byte{4, 5, 0, 1, 5, 0, 5, 5, 0, 6, 5, 0, 7, 5, 3})     // empty a cell, re-add one, refill, rename its first, mix
	f.Add([]byte{6, 1, 0, 6, 1, 0, 4, 1, 0, 7, 1, 1, 0, 1, 0})     // rename the first member twice, empty, mix, remove
	f.Add([]byte{10, 2, 1, 10, 2, 0, 10, 3, 0, 5, 3, 0, 10, 3, 1}) // forward and back, alone and batched with a cell
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 3*64 {
			data = data[:3*64]
		}
		suite := synth.Generate(synth.Profile{
			Name: "fz", Seed: 17, Funcs: 48, MinSize: 4, AvgSize: 12, MaxSize: 40,
			CloneFrac: 0.5, FamilySize: 3, MutRate: 0.05, Loops: 0.3,
		}).Defined()
		for _, o := range []*finderOps{
			newFinderOps(t, suite, 40, diffThresholds),
			newFinderOps(t, tinyCorpus(64), 56, tinyThresholds),
		} {
			for i := 0; i+2 < len(data); i += 3 {
				o.apply(int(data[i]), int(data[i+1]), int(data[i+2]))
				o.check(int(data[i+1]), fmt.Sprintf("op %d", i/3))
				for _, f := range o.pool {
					o.checkShares(f, fmt.Sprintf("op %d", i/3))
				}
			}
			o.sweep(1, "after the ops")
		}
	})
}

// TestLSHOrderIndependent: what the index answers, and how much work it
// does to answer, is a function of the set of indexed functions alone —
// not of the order they arrived in, nor of which slots they landed in.
func TestLSHOrderIndependent(t *testing.T) {
	n := 1200
	if testing.Short() {
		n = 400
	}
	funcs := tinyCorpus(n)

	shuffled := append([]*ir.Function(nil), funcs...)
	rand.New(rand.NewSource(3)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	// Incremental, in another order, with a detour that scrambles the
	// slot numbering: index a third, drop every other one, add the rest.
	incr := newIndex(nil)
	for _, f := range shuffled[:n/3] {
		incr.Add(f)
	}
	for i := 0; i < n/3; i += 2 {
		incr.Remove(shuffled[i])
	}
	for _, f := range shuffled {
		incr.Add(f)
	}

	for _, other := range []*Index{newIndex(shuffled), incr} {
		ref := newIndex(funcs)
		for _, topT := range diffThresholds {
			sameLists(t, ref, other, topT, 1, "insertion order")
		}
		want, got := ref.Stats(), other.Stats()
		if want.Scanned != got.Scanned || want.Probed != got.Probed {
			t.Fatalf("query work depends on insertion order: scanned %d vs %d, probed %d vs %d",
				want.Scanned, got.Scanned, want.Probed, got.Probed)
		}
	}
}

// TestLSHConcurrentQueries: queries hold only the read lock and keep
// their accounting atomically, so any number may run beside each other
// and beside a writer. Meant for -race.
func TestLSHConcurrentQueries(t *testing.T) {
	funcs := tinyCorpus(300)
	l := newIndex(funcs)
	want := make([][]*ir.Function, len(funcs))
	for i, f := range funcs {
		want[i] = l.Candidates(f, 5)
	}
	const readers = 8
	var wg sync.WaitGroup
	var stop atomic.Bool
	wg.Add(1)
	go func() { // re-indexing an unchanged function leaves every list as it was
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			l.Add(funcs[i%len(funcs)])
		}
	}()
	var rwg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func(r int) {
			defer rwg.Done()
			for k := range funcs {
				i := (k + r*37) % len(funcs)
				got := l.Candidates(funcs[i], 5)
				if len(got) != len(want[i]) {
					t.Errorf("%s: %d candidates, want %d", funcs[i].Name(), len(got), len(want[i]))
					return
				}
				for j := range got {
					if got[j] != want[i][j] {
						t.Errorf("%s: candidate %d is %s, want %s", funcs[i].Name(), j, got[j].Name(), want[i][j].Name())
						return
					}
				}
			}
		}(r)
	}
	rwg.Wait()
	stop.Store(true)
	wg.Wait()
	st := l.Stats()
	if want := (readers + 1) * len(funcs); st.Queries != want {
		t.Errorf("Queries = %d, want %d", st.Queries, want)
	}
	if st.Scanned > st.Probed || st.Scanned == 0 {
		t.Errorf("scanned %d of %d probed", st.Scanned, st.Probed)
	}
}

// batchCorpus sizes like driver's scaleFuncs: fast under -short,
// moderate for plain `go test ./...`, and SCALE_CORPUS for the 10k
// acceptance run in the dispatch CI job.
func batchCorpus(t *testing.T) []*ir.Function {
	t.Helper()
	n := 4000
	if testing.Short() {
		n = 600
	} else if s := os.Getenv("SCALE_CORPUS"); s != "" {
		var err error
		if n, err = strconv.Atoi(s); err != nil || n <= 0 {
			t.Fatalf("bad SCALE_CORPUS %q", s)
		}
	}
	return corpus.Build(corpus.Config{Funcs: n, Seed: 5}).Defined()
}

// TestAddBatchMatchesSequential: AddBatch must leave the Index in the
// state element-wise Add does ("lsh": lists, order and cells against an
// Index fed one Add at a time) and agree with the specification's full
// sort ("exact").
func TestAddBatchMatchesSequential(t *testing.T) {
	funcs := batchCorpus(t)
	split := len(funcs) * 3 / 4
	base, extra := funcs[:split], funcs[split:]
	batch := newIndex(base)
	batch.AddBatch(extra)
	t.Run("exact", func(t *testing.T) {
		spec := newSpec(base)
		spec.AddBatch(extra)
		if !slices.Equal(spec.Order(), batch.Order()) {
			t.Fatal("order after the batch differs from the specification's")
		}
		sameLists(t, spec, batch, 2, 7, "batch against the specification")
	})
	t.Run("lsh", func(t *testing.T) {
		seq := newIndex(base)
		for _, f := range extra {
			seq.Add(f)
		}
		if !slices.Equal(seq.Order(), batch.Order()) {
			t.Fatal("order after the batch differs from sequential Adds'")
		}
		for _, ix := range []*Index{seq, batch} {
			if err := ix.checkCells(); err != nil {
				t.Fatal(err)
			}
		}
		sameLists(t, seq, batch, 2, 1, "after batch")
	})
}
