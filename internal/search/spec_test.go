package search

import (
	"cmp"
	"maps"
	"slices"
	"strings"
	"time"

	"repro/internal/fingerprint"
	"repro/internal/ir"
)

// specFinder is the specification the Index is held to: it keeps each
// indexed function's fingerprint and the name it was indexed under, and
// answers a query by scoring every other live function and sorting them
// all by (distance, name) — the paper's §5.1 ranking, with nothing
// pruned, bucketed or kept sorted between calls. It is not safe for
// concurrent use.
type specFinder struct {
	entries   map[*ir.Function]specEntry
	queries   int
	queryTime time.Duration
}

type specEntry struct {
	fp   fingerprint.Fingerprint
	name string
}

// newSpec indexes every defined function of funcs.
func newSpec(funcs []*ir.Function) *specFinder {
	s := &specFinder{entries: map[*ir.Function]specEntry{}}
	s.AddBatch(funcs)
	return s
}

func (s *specFinder) Add(f *ir.Function) {
	if f.IsDecl() {
		return
	}
	s.entries[f] = specEntry{fp: *fingerprint.New(f), name: f.Name()}
}

func (s *specFinder) AddBatch(fs []*ir.Function) {
	for _, f := range fs {
		s.Add(f)
	}
}

func (s *specFinder) Remove(f *ir.Function) { delete(s.entries, f) }

// Fingerprint returns the fingerprint f is ranked by, and whether f is
// listed: the full-sort test's tie count reads it. It is the
// specification's own helper; Finder has no such method.
func (s *specFinder) Fingerprint(f *ir.Function) (fingerprint.Fingerprint, bool) {
	e, ok := s.entries[f]
	return e.fp, ok
}

func (s *specFinder) Candidates(f *ir.Function, t int) []*ir.Function {
	start := time.Now()
	defer func() { s.queries++; s.queryTime += time.Since(start) }()
	self, ok := s.entries[f]
	if !ok || t <= 0 {
		return nil
	}
	dist := map[*ir.Function]int32{}
	for g, e := range s.entries {
		if g != f {
			dist[g] = fingerprint.Distance(&self.fp, &e.fp)
		}
	}
	all := slices.SortedFunc(maps.Keys(dist), func(a, b *ir.Function) int {
		return cmp.Or(cmp.Compare(dist[a], dist[b]), strings.Compare(s.entries[a].name, s.entries[b].name))
	})
	return all[:min(t, len(all))]
}

func (s *specFinder) Order() []*ir.Function {
	return slices.SortedFunc(maps.Keys(s.entries), func(a, b *ir.Function) int {
		ea, eb := s.entries[a], s.entries[b]
		return cmp.Or(cmp.Compare(eb.fp.Size, ea.fp.Size), strings.Compare(ea.name, eb.name))
	})
}

func (s *specFinder) Stats() Stats {
	return Stats{Indexed: len(s.entries), Queries: s.queries, QueryTime: s.queryTime}
}
