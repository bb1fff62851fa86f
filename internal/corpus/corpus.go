// Package corpus streams synthetic modules at 10k/100k/1M-function
// scale. The 2000-function suite in internal/synth materializes every
// decision up front (a size list, then the whole module); at a million
// functions that plan itself is the memory problem. This package
// instead drives synth's incremental Builder through a Stream that
// yields *ir.Function batches: the caller indexes each batch (typically
// through Session.UpdateBatch) and drops any per-batch state before
// the next one, so resident memory tracks the module plus one batch of
// bookkeeping rather than any generator-side scratch. No source text
// is ever produced unless the caller prints the module.
//
// Two similarity distributions shape the corpus, mirroring where
// real-world merge profit comes from at scale:
//
//   - clone families: C++-template-style groups of FamilySize members,
//     a template plus near-clones derived by seeded mutation — local
//     similarity, the structure the 2k suite already has;
//   - library duplication: a small pool of "library" templates cloned
//     (with lighter mutation) throughout the whole corpus — the same
//     routine statically linked into many objects, the global,
//     long-range similarity that only shows up at scale and that
//     distributed-build mergers (Lee et al.) are built around.
//
// Generation is fully deterministic from the seed and independent of
// BatchSize: batching controls how many functions each Next call
// returns, never what is generated.
package corpus

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/ir"
	"repro/internal/synth"
)

// Config parameterises one streamed corpus.
type Config struct {
	// Funcs is the total number of defined functions.
	Funcs int
	// Seed drives all randomness; generation is fully deterministic.
	Seed int64
	// BatchSize is the number of functions per Stream.Next batch
	// (default 1024). It never affects what is generated.
	BatchSize int
	// CloneFrac is the fraction of functions in clone families
	// (default 0.35).
	CloneFrac float64
	// FamilySize is the number of members per clone family (default 4).
	FamilySize int
	// LibDupFrac is the fraction of functions that are near-copies of
	// the shared library templates (default 0.2).
	LibDupFrac float64
	// LibTemplates is the size of the shared library template pool
	// (default max(4, Funcs/2500), capped at 64).
	LibTemplates int
	// MutRate is the per-instruction mutation probability for family
	// members; library duplicates mutate at half this rate.
	MutRate float64
	// MinSize/AvgSize/MaxSize target post-promotion instruction counts.
	MinSize, AvgSize, MaxSize int
	// Loops and Switches shape the generated bodies.
	Loops, Switches float64
}

func (c Config) withDefaults() Config {
	if c.BatchSize <= 0 {
		c.BatchSize = 1024
	}
	if c.CloneFrac == 0 {
		c.CloneFrac = 0.35
	}
	if c.FamilySize < 2 {
		c.FamilySize = 4
	}
	if c.LibDupFrac == 0 {
		c.LibDupFrac = 0.2
	}
	if c.LibTemplates <= 0 {
		c.LibTemplates = c.Funcs / 2500
		if c.LibTemplates < 4 {
			c.LibTemplates = 4
		}
		if c.LibTemplates > 64 {
			c.LibTemplates = 64
		}
	}
	if c.MutRate == 0 {
		c.MutRate = 0.06
	}
	if c.MinSize == 0 {
		c.MinSize = 6
	}
	if c.AvgSize == 0 {
		c.AvgSize = 30
	}
	if c.MaxSize == 0 {
		c.MaxSize = 160
	}
	if c.Loops == 0 {
		c.Loops = 0.5
	}
	if c.Switches == 0 {
		c.Switches = 0.4
	}
	return c
}

// Tier resolves a scale-tier name — "10k", "100k", "1m" — or a raw
// function count ("2500") into a Config with the standard distribution
// at that size.
func Tier(name string) (Config, error) {
	var funcs int
	switch strings.ToLower(name) {
	case "10k":
		funcs = 10_000
	case "100k":
		funcs = 100_000
	case "1m":
		funcs = 1_000_000
	default:
		n, err := strconv.Atoi(name)
		if err != nil || n <= 0 {
			return Config{}, fmt.Errorf("corpus: unknown tier %q (want 10k, 100k, 1m or a count)", name)
		}
		funcs = n
	}
	return Config{Funcs: funcs, Seed: 1}, nil
}

// Stream yields the corpus for cfg as batches of functions appended to
// one module. Create with NewStream, then call Next until it returns
// nil.
type Stream struct {
	cfg  Config
	m    *ir.Module
	b    *synth.Builder
	rng  *rand.Rand
	lib  []*ir.Function // library template pool (themselves counted)
	next int            // functions generated so far
	fam  int            // clone families started
	dups int            // library duplicates emitted
}

// NewStream prepares m to receive the corpus for cfg. The module keeps
// growing across Next calls; a fresh module yields exactly cfg.Funcs
// defined functions.
func NewStream(m *ir.Module, cfg Config) *Stream {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	prof := synth.Profile{
		Name: "corpus", Seed: cfg.Seed,
		MinSize: cfg.MinSize, AvgSize: cfg.AvgSize, MaxSize: cfg.MaxSize,
		MutRate: cfg.MutRate, Loops: cfg.Loops, Switches: cfg.Switches,
	}
	return &Stream{cfg: cfg, m: m, rng: rng, b: synth.NewBuilder(m, rng, prof)}
}

// Total returns the number of functions the stream will generate.
func (s *Stream) Total() int { return s.cfg.Funcs }

// Next generates the next batch of at most BatchSize functions into the
// module and returns them, or nil when the corpus is complete. Clone
// families never span a batch boundary (a batch may run slightly over
// BatchSize to finish its last family), so a caller indexing batch by
// batch always sees whole families.
func (s *Stream) Next() []*ir.Function {
	if s.next >= s.cfg.Funcs {
		return nil
	}
	var batch []*ir.Function
	emit := func(f *ir.Function) {
		batch = append(batch, f)
		s.next++
	}
	// The library template pool comes first so duplicates can refer to
	// it from any later batch; the templates are ordinary corpus
	// functions themselves.
	for len(s.lib) < s.cfg.LibTemplates && s.next < s.cfg.Funcs {
		f := s.b.Build(fmt.Sprintf("corpus_lib%03d", len(s.lib)), s.b.SampleSize())
		s.lib = append(s.lib, f)
		emit(f)
	}
	for s.next < s.cfg.Funcs && len(batch) < s.cfg.BatchSize {
		switch {
		case float64(s.dups) < s.cfg.LibDupFrac*float64(s.next):
			tmpl := s.lib[s.rng.Intn(len(s.lib))]
			emit(s.b.Clone(tmpl, fmt.Sprintf("corpus_d%07d", s.dups), s.cfg.MutRate*0.5))
			s.dups++
		case s.rng.Float64() < s.cfg.CloneFrac:
			// A whole clone family, even past the batch watermark.
			members := s.cfg.FamilySize
			if left := s.cfg.Funcs - s.next; members > left {
				members = left
			}
			tmpl := s.b.Build(fmt.Sprintf("corpus_f%06d_m0", s.fam), s.b.SampleSize())
			emit(tmpl)
			for k := 1; k < members; k++ {
				emit(s.b.Clone(tmpl, fmt.Sprintf("corpus_f%06d_m%d", s.fam, k), s.cfg.MutRate))
			}
			s.fam++
		default:
			emit(s.b.Build(fmt.Sprintf("corpus_u%07d", s.next), s.b.SampleSize()))
		}
	}
	return batch
}

// Build drives a Stream to completion and returns the module — the
// convenience path for tests and tiers small enough not to care about
// batching.
func Build(cfg Config) *ir.Module {
	m := ir.NewModule()
	st := NewStream(m, cfg)
	for st.Next() != nil {
	}
	return m
}
