package driver

import (
	"testing"

	"repro/internal/corpus"
	"repro/internal/costmodel"
)

// TestFirstTouchAllocBudget keeps a record's first touch lean: one walk
// over the body (costmodel.Touch) allocates the entries, the profile and
// one int32 array for the class vector, the histogram columns and the
// numbering, with everything it collects on the way in the records'
// scratch. Over the 2k corpus, once a sweep has grown the scratch and
// the interner, a touch measures 3 allocations; it measured 22 while a
// sequence and a profile were built apart and the histogram grew by
// append. The ceiling is 3 plus a fraction for interner growth.
func TestFirstTouchAllocBudget(t *testing.T) {
	const parentAllocs, ceiling = 22, 3.2
	recs := newRecords(costmodel.X86_64, 2000)
	var rs []*record
	for _, f := range corpus.Build(corpus.Config{Funcs: 2000, Seed: 7}).Defined() {
		recs.put(f, costmodel.FuncBytes(f, costmodel.X86_64))
		rs = append(rs, recs.of[f])
	}
	perSweep := testing.AllocsPerRun(1, func() {
		for _, r := range rs {
			recs.reset(r.fn)
			recs.profile(r)
		}
	})
	got := perSweep / float64(len(rs))
	t.Logf("%.2f allocs per first touch (ceiling %.1f, parent %d)", got, ceiling, parentAllocs)
	if got > ceiling {
		t.Errorf("%.2f allocs per first touch, ceiling %.1f", got, ceiling)
	}
}
