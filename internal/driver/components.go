package driver

// Component capture: the one parallel scheduler (Config.Parallelism > 1).
//
// The greedy loop is inherently serial: each commit retires two
// functions, which reshapes every later candidate list. But candidate
// graphs are usually archipelagos — the finder only surfaces
// near-duplicates, so most functions interact with a small clique and
// never see the rest of the module. Capture exploits that, optimistically,
// and the loop's per-row validation keeps the result bit-identical to
// the serial loop at ANY parallelism:
//
//  1. Partition: union-find over the top-t candidate edges. A commit can
//     only ever pair a row with a member of its list, so first-order
//     interactions stay inside a component. (Lists CAN cross components
//     once functions are consumed; validation is what makes that
//     harmless, so partition quality affects only the transplant hit
//     rate, never the result.) With fewer than two multi-member
//     components there is nothing to run side by side and capture is
//     skipped.
//  2. Capture: one dry pass per multi-member component, in parallel.
//     Each pass runs the ordinary row-step (runner.row) against the
//     shared pristine finder with a private tombstone overlay and
//     records, per row, the filtered candidate list it saw, the chosen
//     scratch-built trial and the row's counters. Nothing shared is
//     mutated — trials are pure, the align cache, the funnel and both
//     finders are concurrency-safe, and the outcome memo (mutex-guarded)
//     never influences the row that writes it, since only row f1 ever
//     touches (f1, *) entries.
//  3. Replay: runner.walk itself. At a captured row's turn it computes
//     the live candidate list; if it equals the captured list, the
//     captured decision is provably what the row-step would decide now —
//     trials are pure functions of the two bodies, and a body only
//     changes when its function is retired, which removes it from every
//     live list and fails the comparison — so the loop transplants it.
//     Any mismatch, or a row with no record, runs the row-step. Induction
//     over the loop's turns gives the serial module text, records and
//     plan. Commit filters and dry runs compose for free: a filtered
//     merge leaves its functions live, so later captured lists no longer
//     match, and a dry replay compares against its tomb-filtered lists.
//
// Families: deciding whether a pair flattens (flattenFor) builds the
// run's reference index lazily — a write — so a capture pass leaves any
// row with a family head in it to the loop. For the rows it does
// capture the registry cannot matter at replay either: a function only
// becomes a head during a run by being a freshly merged body, which is
// not in the finder until the next sync, so a list that still matches
// holds no head and every one of its pairs is pairwise, as captured.

import (
	"context"
	"sort"
	"sync"

	"repro/internal/ir"
)

// capturedRow is one row of a capture pass: the tomb-filtered candidate
// list the row iterated, the winning trial (nil when no candidate was
// profitable; scratch retained for adoption at replay) and the row's
// counters, folded into the run's Result only if the row is
// transplanted — a repaired row recounts itself.
type capturedRow struct {
	f1   *ir.Function
	list []*ir.Function
	best *trial
	Counters
}

// capture partitions order into candidate components and runs one
// capture pass per multi-member component on up to Config.Parallelism
// workers. It returns the captured rows keyed by row function — nil
// when fewer than two components exist — or the first error, in which
// case nothing was captured that the caller need release.
func (r *runner) capture(ctx context.Context, order []*ir.Function) (map[*ir.Function]capturedRow, error) {
	// Partition, warming the candidate cache with exactly the lists the
	// replay will recheck.
	idx := make(map[*ir.Function]int, len(order))
	for i, f := range order {
		idx[f] = i
	}
	parent := make([]int, len(order))
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for i, f := range order {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for _, g := range r.candidates(f, r.cfg.Threshold) {
			if j, ok := idx[g]; ok {
				if ri, rj := find(i), find(j); ri != rj {
					parent[ri] = rj
				}
			}
		}
	}
	members := map[int][]*ir.Function{}
	for i, f := range order {
		root := find(i)
		members[root] = append(members[root], f)
	}
	var comps [][]*ir.Function
	for _, ms := range members {
		// Singletons have nothing to pair with inside their component;
		// the loop runs them directly (their lists are usually empty).
		if len(ms) >= 2 {
			comps = append(comps, ms)
		}
	}
	if len(comps) < 2 {
		return nil, nil
	}
	// Deterministic scheduling order: by first member's walk position.
	// (Ordering affects only which worker captures what.)
	sort.Slice(comps, func(a, b int) bool { return idx[comps[a][0]] < idx[comps[b][0]] })
	r.res.Components = len(comps)

	// One private dry runner per component. The candidate cache is not
	// concurrency-safe, so capture runners query the finder directly.
	logs := make([][]capturedRow, len(comps))
	errs := make([]error, len(comps))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < min(r.cfg.Parallelism, len(comps)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				cr := &runner{
					m: r.m, cfg: r.cfg, cache: r.cache, finder: r.finder, sizes: r.sizes,
					outcomes: r.outcomes, funnel: r.funnel, families: r.families,
					consumed: map[*ir.Function]bool{},
					tomb:     map[*ir.Function]bool{}, base: r.tomb,
				}
				logs[i], errs[i] = cr.captureComponent(ctx, comps[i])
			}
		}()
	}
	for i := range comps {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	rows := make(map[*ir.Function]capturedRow, len(order))
	for i, lg := range logs {
		if errs[i] != nil {
			return nil, errs[i]
		}
		for _, row := range lg {
			rows[row.f1] = row
		}
	}
	return rows, nil
}

// captureComponent is one capture pass: the loop of walk over one
// component's members, recording each row and tombstoning its choice as
// a dry run would instead of settling it. Nothing is planned, claimed
// or reported here; the replay re-emits whatever survives.
func (r *runner) captureComponent(ctx context.Context, comp []*ir.Function) ([]capturedRow, error) {
	var rows []capturedRow
rows:
	for _, f1 := range comp {
		if r.consumed[f1] {
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		list := r.candidates(f1, r.cfg.Threshold)
		for _, f2 := range list {
			if familyCandidate(r.families, r.cfg.MaxFamily, f1, f2) {
				continue rows
			}
		}
		best, c, err := r.row(ctx, f1, list)
		if err != nil {
			return nil, err
		}
		rows = append(rows, capturedRow{f1: f1, list: list, best: best, Counters: c})
		if best != nil {
			r.consumed[f1], r.tomb[f1] = true, true
			r.consumed[best.f2], r.tomb[best.f2] = true, true
		}
	}
	return rows, nil
}
