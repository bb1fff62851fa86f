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

// finderOps drives an Exact and the indexed finder through one stream
// of mutations over a fixed pool of functions — the op alphabet the
// mutation storm and FuzzFinderOps share.
type finderOps struct {
	t    testing.TB
	pool []*ir.Function
	// view is the lens both finders index through; an edit points a
	// function at another's body.
	view       editView
	fps        []fingerprint.Fingerprint // pool[i]'s, through view
	thresholds []int
	live       []bool
	nLive      int
	peakLive   int
	renames    int
	exact      *Exact
	index      *LSH
}

// editView is a BodySource that stands in for body edits: f is indexed
// as the body it maps to, or as itself.
type editView map[*ir.Function]*ir.Function

func (v editView) IndexBody(f *ir.Function) *ir.Function {
	if body, ok := v[f]; ok {
		return body
	}
	return f
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
	o := &finderOps{t: t, pool: pool, view: editView{}, thresholds: thresholds,
		live: make([]bool, len(pool)), nLive: indexed, peakLive: indexed}
	for i := 0; i < indexed; i++ {
		o.live[i] = true
	}
	for _, f := range pool {
		o.fps = append(o.fps, *fingerprint.New(f))
	}
	o.exact = restoreExact(pool[:indexed], o.view, nil)
	o.index = newLSH(pool[:indexed], o.view, nil)
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

// add re-indexes pool[i] in both finders, alone or as a batch.
func (o *finderOps) add(batch bool, is ...int) {
	fs := make([]*ir.Function, len(is))
	for k, i := range is {
		fs[k] = o.pool[i]
		o.setLive(i, true)
	}
	if batch {
		o.exact.AddBatch(fs)
		o.index.AddBatch(fs)
		return
	}
	for _, f := range fs {
		o.exact.Add(f)
		o.index.Add(f)
	}
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

const numFinderOps = 10

// apply runs op kind (mod numFinderOps) on pool[a], with b as the op's
// parameter: remove, (re-)add, rename then re-add, AddBatch of up to
// eight functions starting there, empty pool[a]'s cell, refill it in one
// batch, rename its first member to sort last, Add pool[a] and then
// batch it again with its cell (twice over, a duplicate entry) before
// one more Add, or edit pool[a] into pool[b]'s body and re-index it —
// in one batch with the cell it leaves, or alone.
func (o *finderOps) apply(kind, a, b int) {
	a %= len(o.pool)
	f := o.pool[a]
	switch kind % numFinderOps {
	case 0:
		o.exact.Remove(f)
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
			o.exact.Remove(o.pool[i])
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
		o.view[f] = o.pool[b%len(o.pool)]
		o.fps[a] = *fingerprint.New(o.view.IndexBody(f))
		if kind%numFinderOps == 8 {
			o.add(true, left...)
		} else {
			o.add(false, a)
		}
	}
}

// check compares pool[i]'s lists at every threshold (a function that is
// not indexed must get nil from both).
func (o *finderOps) check(i int, label string) {
	o.t.Helper()
	for _, topT := range o.thresholds {
		sameList(o.t, o.exact, o.index, o.pool[i%len(o.pool)], topT, label)
	}
}

// sweep compares every stride-th live function at every threshold, the
// attempt order, and the slot accounting: slots are recycled before the
// slabs grow, so the slab length is the peak live count.
func (o *finderOps) sweep(stride int, label string) {
	o.t.Helper()
	for _, topT := range o.thresholds {
		sameLists(o.t, o.exact, o.index, topT, stride, label)
	}
	want, got := o.exact.Order(), o.index.Order()
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
func (l *LSH) checkCells() error {
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
		body := f
		if l.view != nil {
			body = l.view.IndexBody(f)
		}
		if fp := fingerprint.New(body); l.cells[c].fp != *fp {
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
		if !found || x.hash != cellHash(&x.fp) {
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
// the cell ops that empty, refill and re-order a cell — the indexed
// finder's lists are element-wise Exact's after every step, and over the
// whole index before and after: at t = 1, 3 and 8 on the duplicate-heavy
// tiny shape, at 1, 5 and 10 on the suite shapes.
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
	defer func(h func(*fingerprint.Fingerprint) uint64) { cellHash = h }(cellHash)
	cellHash = func(fp *fingerprint.Fingerprint) uint64 { return uint64(fp.Size % 3) }
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
// an op (kind, function, parameter), a comparison after each and a full
// sweep at the end, over a clone-rich suite pool and over the tiny shape,
// whose cells hold up to six members.
func FuzzFinderOps(f *testing.F) {
	f.Add([]byte{0, 3, 0, 1, 3, 0, 2, 3, 0})                     // remove, re-add, rename one function
	f.Add([]byte{0, 1, 0, 0, 2, 0, 0, 5, 0, 1, 44, 0, 1, 45, 0}) // free slots, then fill them from the reserve
	f.Add([]byte{2, 9, 0, 2, 9, 0, 0, 9, 0, 3, 9, 7})            // rename twice, remove, batch it back
	f.Add([]byte{3, 0, 255, 3, 40, 3, 0, 47, 0, 2, 0, 0})        // batches over indexed and reserve functions
	f.Add([]byte{4, 5, 0, 1, 5, 0, 5, 5, 0, 6, 5, 0, 7, 5, 3})   // empty a cell, re-add one, refill, rename its first, mix
	f.Add([]byte{6, 1, 0, 6, 1, 0, 4, 1, 0, 7, 1, 1, 0, 1, 0})   // rename the first member twice, empty, mix, remove
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
	incr := newLSH(nil, nil, nil)
	for _, f := range shuffled[:n/3] {
		incr.Add(f)
	}
	for i := 0; i < n/3; i += 2 {
		incr.Remove(shuffled[i])
	}
	for _, f := range shuffled {
		incr.Add(f)
	}

	for _, other := range []*LSH{newLSH(shuffled, nil, nil), incr} {
		ref := newLSH(funcs, nil, nil)
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
	l := newLSH(funcs, nil, nil)
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

// TestAddBatchMatchesSequential: for both finders, AddBatch must leave
// the index in the same state as element-wise Add.
func TestAddBatchMatchesSequential(t *testing.T) {
	funcs := batchCorpus(t)
	split := len(funcs) * 3 / 4
	base, extra := funcs[:split], funcs[split:]
	for _, kind := range []Kind{KindExact, KindLSH} {
		t.Run(kind.String(), func(t *testing.T) {
			seq, batch := New(kind, base), New(kind, base)
			for _, f := range extra {
				seq.Add(f)
			}
			bi, ok := batch.(BatchIndexer)
			if !ok {
				t.Fatalf("%T does not implement BatchIndexer", batch)
			}
			bi.AddBatch(extra)
			wantOrder, gotOrder := seq.Order(), batch.Order()
			if len(wantOrder) != len(gotOrder) {
				t.Fatalf("order length %d != %d", len(gotOrder), len(wantOrder))
			}
			for i := range wantOrder {
				if wantOrder[i] != gotOrder[i] {
					t.Fatalf("order %d is %s, want %s", i, gotOrder[i].Name(), wantOrder[i].Name())
				}
			}
			sameLists(t, seq, batch, 2, 1, kind.String()+" after batch")
		})
	}
}
