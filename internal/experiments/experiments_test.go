package experiments

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/synth"
)

// scaledLab shares one heavily scaled-down lab across the smoke tests.
var testLab = func() *Lab {
	l := NewLab()
	l.Scale = 24
	return l
}()

func TestAllExperimentsProduceRows(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow in -short mode")
	}
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			table, ok := testLab.ByID(id)
			if !ok {
				t.Fatalf("experiment %s missing", id)
			}
			if table.ID != id {
				t.Errorf("table id %q, want %q", table.ID, id)
			}
			if len(table.Rows) == 0 {
				t.Fatalf("%s produced no rows", id)
			}
			if len(table.Header) == 0 {
				t.Fatalf("%s has no header", id)
			}
			for _, r := range table.Rows {
				if len(r) > len(table.Header) {
					t.Errorf("%s row wider than header: %v", id, r)
				}
			}
			// Renders without panicking and contains the id.
			if !strings.Contains(table.String(), id) {
				t.Errorf("%s rendering lacks id", id)
			}
		})
	}
}

func TestFig5RatioInPaperBand(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	table := testLab.Fig5()
	last := table.Rows[len(table.Rows)-1]
	ratio, err := strconv.ParseFloat(last[len(last)-1], 64)
	if err != nil {
		t.Fatalf("bad GMean cell %q", last[len(last)-1])
	}
	// Paper: 1.73x, "often by twice or more". Accept the band [1.4, 3.0].
	if ratio < 1.4 || ratio > 3.0 {
		t.Errorf("demotion growth GMean %.2f outside the plausible band", ratio)
	}
}

func TestFig20OrderingHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	table := testLab.Fig20()
	last := table.Rows[len(table.Rows)-1]
	fmsa, _ := strconv.ParseFloat(last[1], 64)
	nopc, _ := strconv.ParseFloat(last[2], 64)
	salssa, _ := strconv.ParseFloat(last[3], 64)
	if !(fmsa <= nopc && nopc <= salssa+0.5) {
		t.Errorf("expected FMSA <= SalSSA-NoPC <= SalSSA, got %.1f / %.1f / %.1f",
			fmsa, nopc, salssa)
	}
	if salssa <= fmsa {
		t.Errorf("SalSSA (%.1f%%) must beat FMSA (%.1f%%)", salssa, fmsa)
	}
}

// TestPaperClaimsHold checks the paper's qualitative claims on the
// scaled-down suites: SalSSA reduces size more than FMSA at every
// exploration threshold on both SPEC suites (Figure 17), needs a smaller
// peak alignment matrix (Figure 22: FMSA/SalSSA above 1) and slows the
// merged programs by at most 10% (Figure 25).
func TestPaperClaimsHold(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	for _, table := range []*Table{testLab.Fig17a(), testLab.Fig17b()} {
		g := gmeans(t, table)
		for _, th := range []int{1, 5, 10} {
			salssa := g(fmt.Sprintf("SalSSA[t=%d]", th))
			fmsa := g(fmt.Sprintf("FMSA[t=%d]", th))
			t.Logf("%s t=%d: SalSSA %.1f%%, FMSA %.1f%%", table.ID, th, salssa, fmsa)
			if salssa < fmsa {
				t.Errorf("%s t=%d: SalSSA (%.1f%%) below FMSA (%.1f%%)", table.ID, th, salssa, fmsa)
			}
		}
	}
	if r := gmeans(t, testLab.Fig22())("ratio"); r <= 1 {
		t.Errorf("fig22: FMSA/SalSSA peak-matrix GMean %.2f, want > 1", r)
	} else {
		t.Logf("fig22: FMSA/SalSSA peak-matrix GMean %.2f", r)
	}
	if s := gmeans(t, testLab.Fig25())("SalSSA[t=1]"); s > 1.10 {
		t.Errorf("fig25: SalSSA normalized runtime GMean %.2f, want <= 1.10", s)
	} else {
		t.Logf("fig25: SalSSA normalized runtime GMean %.2f", s)
	}
}

// gmeans returns a lookup of table's GMean row by column header; an
// unknown column fails the test.
func gmeans(t *testing.T, table *Table) func(col string) float64 {
	t.Helper()
	last := table.Rows[len(table.Rows)-1]
	if last[0] != "GMean" {
		t.Fatalf("%s: last row is %q, want GMean", table.ID, last[0])
	}
	return func(col string) float64 {
		t.Helper()
		for i, h := range table.Header {
			if h != col || i >= len(last) {
				continue
			}
			v, err := strconv.ParseFloat(last[i], 64)
			if err != nil {
				t.Fatalf("%s: bad GMean cell %q under %s", table.ID, last[i], col)
			}
			return v
		}
		t.Fatalf("%s: no GMean column %s", table.ID, col)
		return 0
	}
}

func TestGmeanHelpers(t *testing.T) {
	if g := gmeanRatio([]float64{2, 8}); g != 4 {
		t.Errorf("gmeanRatio(2,8) = %v, want 4", g)
	}
	if g := gmeanRatio(nil); g != 1 {
		t.Errorf("gmeanRatio(nil) = %v, want 1", g)
	}
	red := gmeanReduction([]float64{50, 50})
	if red < 49.9 || red > 50.1 {
		t.Errorf("gmeanReduction(50,50) = %v, want 50", red)
	}
}

func TestLabCaching(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	l := NewLab()
	l.Scale = 20
	p := synth.MiBench()[0] // CRC32, tiny
	e1 := l.run("mibench", p, 0, 1, 0)
	e2 := l.run("mibench", p, 0, 1, 0)
	if e1 != e2 {
		t.Error("identical runs not cached")
	}
}
