package driver

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

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
}

// goldenCases is the seeded grid the digests cover: the 2k corpus under
// dup-fold × MaxFamily {2, 4}, and three paper-suite programs under the
// paper's configuration (threshold 1, nothing folded).
func goldenCases() []goldenCase {
	var cases []goldenCase
	for _, fold := range []bool{false, true} {
		for _, fam := range []int{2, 4} {
			cases = append(cases, goldenCase{
				name:  fmt.Sprintf("corpus2k/fold=%v/fam=%d", fold, fam),
				build: func(t *testing.T) *ir.Module { return buildCorpus(t, 2000) },
				cfg: Config{
					Algorithm: SalSSA, Threshold: 1, Target: costmodel.X86_64,
					DupFold: fold, MaxFamily: fam,
				},
				runs: fam / 2,
			})
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
	folded := map[string]bool{}
	for i := 0; i < c.runs; i++ {
		res, err := sizedRun(t, s, nil)
		if err != nil {
			t.Fatalf("%s: run %d: %v", c.name, i, err)
		}
		// Nothing changes between runs, so an earlier run's duplicate is
		// still a forwarder, and folding it onto an identical forwarder
		// saves nothing.
		for _, fr := range res.Folds {
			if folded[fr.Dup] {
				t.Errorf("%s: run %d folds the forwarder @%s again", c.name, i, fr.Dup)
			}
			folded[fr.Dup] = true
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
		t.Skip("golden grid optimizes seven modules")
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
	// The group returns once its parallel cases have.
	t.Run("grid", func(t *testing.T) {
		for _, c := range goldenCases() {
			t.Run(c.name, func(t *testing.T) {
				t.Parallel()
				d := c.run(t)
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
