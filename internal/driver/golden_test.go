package driver

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"slices"
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
// MaxFamily {2, 4}, and three paper-suite programs under the paper's
// configuration (threshold 1). Every run folds duplicates; the corpus
// cells keep the fold=true in their names from when folding was
// optional, so their digests stay comparable across that change.
func goldenCases() []goldenCase {
	var cases []goldenCase
	for _, fam := range []int{2, 4} {
		cases = append(cases, goldenCase{
			name:  fmt.Sprintf("corpus2k/fold=true/fam=%d", fam),
			build: func(t *testing.T) *ir.Module { return buildCorpus(t, 2000) },
			cfg: Config{
				Algorithm: SalSSA, Threshold: 1, Target: costmodel.X86_64,
				MaxFamily: fam,
			},
			runs: fam / 2,
		})
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
	// A single run's digest (resultDigest) also pins its size and how
	// many pairs it tried; the grid's cells were recorded without them.
	FinalBytes int `json:"final_bytes,omitempty"`
	Attempts   int `json:"attempts,omitempty"`
}

func sum(s string) string { return fmt.Sprintf("%x", sha256.Sum256([]byte(s))) }

// digestOf digests the module text and the records of the runs that
// produced it.
func digestOf(m *ir.Module, merges []MergeRecord, folds []FoldRecord) goldenDigest {
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

// resultDigest is digestOf one run's result, with its final size and
// attempt count.
func resultDigest(m *ir.Module, res *Result) goldenDigest {
	d := digestOf(m, res.Merges, res.Folds)
	d.FinalBytes, d.Attempts = res.FinalBytes, res.Attempts
	return d
}

// golden is goldenDigestFile, read on first use; checkGolden adds to
// it.
var golden struct {
	sync.Mutex
	want map[string]goldenDigest
}

// checkGolden holds d to the digest recorded under key in
// goldenDigestFile. A key with no digest yet is recorded, and the test
// fails; it passes from the next run on. To re-record after an intended
// output change, delete the keys that moved (or the file) and run the
// tests that own them once.
func checkGolden(t *testing.T, key string, d goldenDigest) {
	t.Helper()
	golden.Lock()
	defer golden.Unlock()
	if golden.want == nil {
		golden.want = map[string]goldenDigest{}
		data, err := os.ReadFile(goldenDigestFile)
		if err == nil {
			err = json.Unmarshal(data, &golden.want)
		}
		if err != nil && !os.IsNotExist(err) {
			t.Fatalf("%s: %v", goldenDigestFile, err)
		}
	}
	if w, ok := golden.want[key]; ok {
		if d != w {
			t.Errorf("%s: output diverged from the golden digest\n got %+v\nwant %+v", key, d, w)
		}
		return
	}
	golden.want[key] = d
	out, _ := json.MarshalIndent(golden.want, "", "  ")
	if err := os.WriteFile(goldenDigestFile, append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Errorf("%s: no golden digest was recorded; recorded %+v, run again to compare", key, d)
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
	return digestOf(m, merges, folds)
}

// TestGoldenDigests holds the pipeline's output to digests recorded at
// the commit before the dense-index codegen rewrite. Digests recorded by
// other code are the oracle here: a wrong dominator tree in
// internal/analysis, which every merge shares, would pass any
// differential between two generators, but not a recorded digest. The
// digests of single runs (resultDigest) that the session tests check
// share the file; a grid cell's key is its case name.
func TestGoldenDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("golden grid optimizes seven modules")
	}
	cases := goldenCases()
	// The group returns once its parallel cases have.
	t.Run("grid", func(t *testing.T) {
		for _, c := range cases {
			t.Run(c.name, func(t *testing.T) {
				t.Parallel()
				checkGolden(t, c.name, c.run(t))
			})
		}
	})
	// Every recorded cell is still a case of the grid.
	for key := range golden.want {
		ns, _, _ := strings.Cut(key, "/")
		if (ns == "corpus2k" || ns == "suite") && !slices.ContainsFunc(cases, func(c goldenCase) bool { return c.name == key }) {
			t.Errorf("%s records %q, which is no case of the grid", goldenDigestFile, key)
		}
	}
}
