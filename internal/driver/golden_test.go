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
	"repro/internal/synth"
)

const goldenDigestFile = "testdata/golden_digests.json"

// goldenCases is the seeded grid the digests cover: the 2k corpus under
// MaxFamily {2, 4}, and three paper-suite programs under the paper's
// configuration (threshold 1). Every run folds duplicates; the corpus
// cells keep the fold=true in their names from when folding was
// optional, so their digests stay comparable across that change. A
// cell's digest key is its name, and was recorded bare.
func goldenCases() []cell {
	var cases []cell
	for _, fam := range []int{2, 4} {
		c := corpusCell(2000, 7, Config{Algorithm: SalSSA, Threshold: 1, Target: costmodel.X86_64, MaxFamily: fam}, 0)
		c.name, c.runs = fmt.Sprintf("corpus2k/fold=true/fam=%d", fam), fam/2
		cases = append(cases, c)
	}
	cases = append(cases,
		suiteCell(synth.SPEC2006(), "447.dealII", costmodel.X86_64),
		suiteCell(synth.SPEC2006(), "403.gcc", costmodel.X86_64),
		suiteCell(synth.MiBench(), "cjpeg", costmodel.Thumb))
	for i := range cases {
		cases[i].key, cases[i].bare = cases[i].name, true
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
	// A cell's digest also pins its final size and how many pairs its
	// runs tried; the grid's cells were recorded bare, without them.
	FinalBytes int `json:"final_bytes,omitempty"`
	Attempts   int `json:"attempts,omitempty"`
}

func sum(s string) string { return fmt.Sprintf("%x", sha256.Sum256([]byte(s))) }

// digestOf digests the module text and the records of the runs that
// produced it.
func digestOf(text string, merges []MergeRecord, folds []FoldRecord) goldenDigest {
	return goldenDigest{
		Module: sum(text),
		// The digests were recorded before core.Stats had clocks; a
		// record's are always zero.
		Merges:    sum(strings.ReplaceAll(fmt.Sprintf("%+v", merges), " BuildTime:0s RepairTime:0s", "")),
		Folds:     sum(fmt.Sprintf("%+v", folds)),
		NumMerges: len(merges),
		NumFolds:  len(folds),
	}
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
func checkGolden(t testing.TB, key string, d goldenDigest) {
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

// TestGoldenDigests holds the pipeline's output to digests recorded at
// the commit before the dense-index codegen rewrite. Digests recorded by
// other code are the oracle here: a wrong dominator tree in
// internal/analysis, which every merge shares, would pass any
// differential between two generators, but not a recorded digest. The
// file also holds the digests the session tests' cells and TestOracle's
// cells ("oracle/" keys) pin; a grid cell's key is its case name.
func TestGoldenDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("golden grid optimizes seven modules")
	}
	t.Parallel()
	cases := goldenCases()
	// The group returns once its parallel cases have.
	t.Run("grid", func(t *testing.T) {
		for _, c := range cases {
			t.Run(c.name, func(t *testing.T) {
				t.Parallel()
				c.run(t)
			})
		}
	})
	// Every recorded cell is still a case of the grid or of TestOracle.
	cells := append(cases, oracleCells()...)
	golden.Lock()
	defer golden.Unlock()
	for key := range golden.want {
		ns, _, _ := strings.Cut(key, "/")
		if (ns == "corpus2k" || ns == "suite" || ns == "oracle") && !slices.ContainsFunc(cells, func(c cell) bool { return c.key == key }) {
			t.Errorf("%s records %q, which is no cell of the grid or the oracle", goldenDigestFile, key)
		}
	}
}
