package driver

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"repro/internal/canon"
	"repro/internal/costmodel"
	"repro/internal/ir"
	"repro/internal/synth"
)

const goldenDigestFile = "testdata/golden_digests.json"

// goldenCase is one cell of the golden grid: a module, the
// configuration it is optimized under, and how many times one session
// optimizes it (families only flatten from the second run on, when
// merged functions find further partners).
type goldenCase struct {
	name  string
	build func(t *testing.T) *ir.Module
	cfg   Config
	runs  int
	// key names the module and configuration; cells that share it
	// share one run.
	key string
}

// goldenCases is the seeded grid the digests cover: the 2k corpus under
// the finder names × dup-fold × MaxFamily {2, 4} × canon, and three
// paper-suite programs under the paper's configuration (threshold 1,
// nothing folded). Both finder names run the Index, so the two names'
// cells share one run; the "exact" cells' digests were recorded under
// the deleted Exact finder, and equal the "lsh" cells'.
func goldenCases() []goldenCase {
	var cases []goldenCase
	for _, finder := range finderNames {
		for _, fold := range []bool{false, true} {
			for _, fam := range []int{2, 4} {
				for _, canonOn := range []bool{false, true} {
					cfg := Config{
						Algorithm: SalSSA, Threshold: 1, Target: costmodel.X86_64,
						DupFold: fold, MaxFamily: fam,
					}
					if canonOn {
						cfg.Canon = canon.Default()
					}
					cases = append(cases, goldenCase{
						name:  fmt.Sprintf("corpus2k/%s/fold=%v/fam=%d/canon=%v", finder, fold, fam, canonOn),
						build: func(t *testing.T) *ir.Module { return buildCorpus(t, 2000) },
						cfg:   cfg,
						runs:  fam / 2,
						key:   fmt.Sprintf("corpus2k/fold=%v/fam=%d/canon=%v", fold, fam, canonOn),
					})
				}
			}
		}
	}
	suites := []struct {
		profiles []synth.Profile
		name     string
		target   costmodel.Target
	}{
		{synth.SPEC2006(), "447.dealII", costmodel.X86_64},
		{synth.SPEC2006(), "403.gcc", costmodel.X86_64},
		{synth.MiBench(), "cjpeg", costmodel.Thumb},
	}
	for _, s := range suites {
		p, ok := synth.ByName(s.profiles, s.name)
		if !ok {
			panic("golden: unknown suite profile " + s.name)
		}
		cases = append(cases, goldenCase{
			name:  "suite/" + s.name,
			build: func(*testing.T) *ir.Module { return synth.Generate(p) },
			cfg:   Config{Algorithm: SalSSA, Threshold: 1, Target: s.target},
			runs:  1,
			key:   "suite/" + s.name,
		})
	}
	return cases
}

// goldenDigest is what one case pins: the printed output module and the
// merge and fold records, each as a sha256.
type goldenDigest struct {
	Module string `json:"module"`
	Merges string `json:"merges"`
	Folds  string `json:"folds"`
	// The counts make a mismatch readable without the module text.
	NumMerges int `json:"num_merges"`
	NumFolds  int `json:"num_folds"`
}

// run optimizes the case's module in one session and digests the
// module text and every run's records.
func (c goldenCase) run(t *testing.T) goldenDigest {
	m := c.build(t)
	s, err := OpenSession(t.Context(), m, c.cfg)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	defer s.Close()
	var merges []MergeRecord
	var folds []FoldRecord
	for i := 0; i < c.runs; i++ {
		res, err := sizedRun(t, s, nil)
		if err != nil {
			t.Fatalf("%s: run %d: %v", c.name, i, err)
		}
		merges = append(merges, res.Merges...)
		folds = append(folds, res.Folds...)
	}
	if err := ir.VerifyModule(m); err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	sum := func(s string) string { return fmt.Sprintf("%x", sha256.Sum256([]byte(s))) }
	return goldenDigest{
		Module: sum(m.String()),
		// The digests were recorded before core.Stats had clocks; a
		// record's are always zero.
		Merges:    sum(strings.ReplaceAll(fmt.Sprintf("%+v", merges), " BuildTime:0s RepairTime:0s", "")),
		Folds:     sum(fmt.Sprintf("%+v", folds)),
		NumMerges: len(merges),
		NumFolds:  len(folds),
	}
}

// TestGoldenDigests holds the pipeline's output to digests recorded at
// the commit before the dense-index codegen rewrite. The retained-
// generator differentials (core/pairwise_reference_test.go,
// oneshot_reference_test.go) share internal/analysis and
// internal/transform with the code under test, so a wrong dominator
// tree would pass them; a digest recorded by other code cannot be
// fooled that way. To re-record after an intended output change, delete
// testdata/golden_digests.json and run the test once: it writes the
// file and fails, and passes from then on.
func TestGoldenDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("golden grid optimizes eleven modules")
	}
	want := map[string]goldenDigest{}
	data, err := os.ReadFile(goldenDigestFile)
	record := os.IsNotExist(err)
	if err != nil && !record {
		t.Fatal(err)
	}
	if !record {
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatalf("%s: %v", goldenDigestFile, err)
		}
	}
	got := map[string]goldenDigest{}
	var mu sync.Mutex
	type sharedRun struct {
		once sync.Once
		d    goldenDigest
	}
	cases := goldenCases()
	runs := map[string]*sharedRun{}
	for _, c := range cases {
		runs[c.key] = &sharedRun{}
	}
	// The group returns once its parallel cases have.
	t.Run("grid", func(t *testing.T) {
		for _, c := range cases {
			t.Run(c.name, func(t *testing.T) {
				t.Parallel()
				r := runs[c.key]
				r.once.Do(func() { r.d = c.run(t) })
				d := r.d
				mu.Lock()
				got[c.name] = d
				mu.Unlock()
				if record {
					return
				}
				if w, ok := want[c.name]; !ok {
					t.Error("no golden digest recorded")
				} else if d != w {
					t.Errorf("output diverged from the golden digest\n got %+v\nwant %+v", d, w)
				}
			})
		}
	})
	if record {
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenDigestFile, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("recorded %d golden digests in %s; run again to compare", len(got), goldenDigestFile)
	}
	if len(want) != len(got) {
		t.Errorf("%s holds %d digests, the grid has %d cases", goldenDigestFile, len(want), len(got))
	}
}
