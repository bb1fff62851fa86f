package driver

import (
	"fmt"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/ir"
	"repro/internal/irtext"
)

// TestAlignCacheReported: every run must account its linearization
// cache, and with threshold > 1 the cache must actually be hit (one
// function aligned against several candidates reuses its sequence).
func TestAlignCacheReported(t *testing.T) {
	m := testModule(t, 6)
	res := Run(m, Config{Algorithm: SalSSA, Threshold: 3, Target: costmodel.X86_64})
	ac := res.AlignCache
	if ac.Misses == 0 {
		t.Fatal("run interned no sequences")
	}
	if ac.Hits == 0 {
		t.Error("threshold-3 run never hit the sequence cache")
	}
	if ac.Classes == 0 {
		t.Error("run interned no instruction classes")
	}
	if len(res.Merges) > 0 && int64(ac.Functions) >= ac.Misses {
		t.Errorf("commits must invalidate cached sequences: %d live of %d interned",
			ac.Functions, ac.Misses)
	}
}

// TestLSHFoldMatchesExact is the full-pipeline check of the index
// under duplicate folding: with folds retiring functions before the
// loop, Run commits the merges and folds the one-shot pipeline (whose
// finder the Exact one was) did, held as golden digests, and the merged
// module verifies and behaves like the original.
func TestLSHFoldMatchesExact(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		for _, threshold := range []int{1, 3} {
			name := fmt.Sprintf("seed%d-t%d", seed, threshold)
			base := testModule(t, seed)
			cfg := Config{
				Algorithm: SalSSA, Threshold: threshold, Target: costmodel.X86_64,
			}
			mp := ir.CloneModule(base)
			got := Run(mp, cfg)
			if err := ir.VerifyModule(mp); err != nil {
				t.Fatalf("%s: merged module does not verify: %v", name, err)
			}
			checkGolden(t, "lshfold/"+name, resultDigest(mp, got))
			diffModule(t, base, mp, name)
		}
	}
}

// TestRecordReset: a record builds its sequence and profile once, in
// one walk, and serves them from then on; reset drops the sequence,
// profile and hash but keeps the name and size, and the next request
// builds from the current body; drop removes the record. The stats
// count every sequence request.
func TestRecordReset(t *testing.T) {
	m := irtext.MustParse(irtext.Fig2Module)
	f := m.FuncByName("F1")
	recs := newRecords(costmodel.X86_64, 1)
	recs.put(f, costmodel.FuncBytes(f, costmodel.X86_64))
	r := recs.of[f]
	s1, s2 := recs.seqOf(r), recs.seqOf(r)
	if &s1.Entries[0] != &s2.Entries[0] {
		t.Fatal("second request rebuilt the sequence")
	}
	recs.profile(r)
	recs.hash(f)
	if r.prof == nil || &recs.profile(r).Classes[0] != &r.prof.Classes[0] {
		t.Fatal("the first touch built no profile, or a request rebuilt it")
	}
	if st := recs.cacheStats(); st.Misses != 1 || st.Hits != 1 || st.Functions != 1 {
		t.Fatalf("stats = %+v, want 1 miss (the first touch), 1 hit, 1 function", st)
	}
	size := r.size
	recs.reset(f)
	if r.hashed || r.seq.Entries != nil || r.prof != nil || recs.cacheStats().Functions != 0 {
		t.Fatalf("reset kept facts of the old body: %+v", *r)
	}
	if r.name != "F1" || r.size != size {
		t.Fatalf("reset lost the name or size: %q, %d", r.name, r.size)
	}
	if s3 := recs.seqOf(r); &s3.Entries[0] == &s1.Entries[0] {
		t.Fatal("a request after reset returned the stale sequence")
	}
	if st := recs.cacheStats(); st.Misses != 2 || st.Functions != 1 {
		t.Fatalf("stats = %+v, want 2 misses, 1 function", st)
	}
	recs.drop(f)
	if recs.of[f] != nil || recs.cacheStats().Functions != 0 {
		t.Fatal("drop left the record or its sequence counted")
	}
}
