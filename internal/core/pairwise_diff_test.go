package core

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"repro/internal/ir"
	"repro/internal/synth"
	"repro/internal/transform"
)

const pairwiseDigestFile = "testdata/pairwise_digests.json"

// pairwiseDigest is what one pair merge pins, each as a sha256: the
// merged body after clean-up, the Stats without their clocks, and the
// module after both thunks are built.
type pairwiseDigest struct {
	Body   string `json:"body"`
	Stats  string `json:"stats"`
	Module string `json:"module"`
}

func sum(s string) string { return fmt.Sprintf("%x", sha256.Sum256([]byte(s))) }

// pairwiseDigests is pairwiseDigestFile, read on first use;
// checkDigest adds to it.
var pairwiseDigests map[string]pairwiseDigest

// checkDigest holds d to the digest recorded under key in
// pairwiseDigestFile. A key with no digest yet is recorded, and the test
// fails; it passes from the next run on. To re-record after an intended
// output change, delete the keys that moved (or the file) and run the
// test once.
func checkDigest(t *testing.T, key string, d pairwiseDigest) {
	t.Helper()
	if pairwiseDigests == nil {
		pairwiseDigests = map[string]pairwiseDigest{}
		data, err := os.ReadFile(pairwiseDigestFile)
		if err == nil {
			err = json.Unmarshal(data, &pairwiseDigests)
		}
		if err != nil && !os.IsNotExist(err) {
			t.Fatalf("%s: %v", pairwiseDigestFile, err)
		}
	}
	if w, ok := pairwiseDigests[key]; ok {
		if d != w {
			t.Errorf("%s: output diverged from the recorded digest\n got %+v\nwant %+v", key, d, w)
		}
		return
	}
	pairwiseDigests[key] = d
	out, _ := json.MarshalIndent(pairwiseDigests, "", "  ")
	if err := os.WriteFile(pairwiseDigestFile, append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Errorf("%s: no digest was recorded; recorded %+v, run again to compare", key, d)
}

// TestPairwiseBitIdenticalToReference holds the k=2 path of the family
// generator to the pre-family pairwise generator: the same merged body,
// thunks and stats across the synth corpora and every generator
// variant. The pairwise generator is gone; what it produced for each
// pair, recorded while it still stood beside the family generator, is
// held as digests. The thunks pin the i1 identifier and its historical
// polarity (true selects the first function) as part of the k=2
// contract.
func TestPairwiseBitIdenticalToReference(t *testing.T) {
	variants := []struct {
		name string
		opts Options
	}{
		{"default", DefaultOptions()},
		{"nopc", func() Options { o := DefaultOptions(); o.PhiCoalescing = false; return o }()},
		{"noxor", func() Options { o := DefaultOptions(); o.XorBranch = false; return o }()},
	}
	for seed := int64(40); seed < 46; seed++ {
		m := synth.Generate(synth.Profile{
			Name: "pairref", Seed: seed, Funcs: 10,
			MinSize: 8, AvgSize: 50, MaxSize: 140,
			CloneFrac: 0.5, FamilySize: 3, MutRate: 0.10,
			Loops: 0.6, Switches: 0.5, ExcRate: 0.05, Floats: 0.2,
		})
		defined := m.Defined()
		pairs := 0
		for i := 0; i < len(defined) && pairs < 6; i++ {
			for j := i + 1; j < len(defined) && pairs < 6; j++ {
				if _, err := PlanParams(defined[i], defined[j]); err != nil {
					continue
				}
				pairs++
				n1, n2 := defined[i].Name(), defined[j].Name()
				for _, v := range variants {
					name := fmt.Sprintf("seed%d-%s-%s-%s", seed, n1, n2, v.name)
					t.Run(name, func(t *testing.T) {
						mNew := ir.CloneModule(m)
						g1, g2 := mNew.FuncByName(n1), mNew.FuncByName(n2)
						merged, stats, err := Merge(mNew, g1, g2, "paircheck", v.opts)
						if err != nil {
							t.Fatal(err)
						}
						transform.Simplify(merged)
						stats.BuildTime, stats.RepairTime = 0, 0 // the pairwise generator kept no clocks
						plan, err := PlanParams(g1, g2)
						if err != nil {
							t.Fatal(err)
						}
						BuildThunk(g1, merged, 0, plan.Maps[0], plan)
						BuildThunk(g2, merged, 1, plan.Maps[1], plan)
						if err := ir.VerifyModule(mNew); err != nil {
							t.Fatalf("thunked module does not verify: %v", err)
						}
						checkDigest(t, name, pairwiseDigest{Body: sum(merged.String()), Stats: sum(fmt.Sprintf("%+v", *stats)), Module: sum(mNew.String())})
					})
				}
			}
		}
		if pairs == 0 {
			t.Fatalf("seed %d produced no mergeable pairs", seed)
		}
	}
}
