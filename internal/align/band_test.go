package align

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// alignSpec is the specification the banded kernel is held to: the plain
// Needleman–Wunsch fill over class vectors, whole matrix, no floor, no
// pools — the loop the kernel replaced. With alignReference (the
// Entry/Mergeable form of the same loop) it is the only other DP kept.
func alignSpec(a, b []Entry, ca, cb []int32, opts Options) *Result {
	n, m := len(ca), len(cb)
	w := m + 1
	score := make([]int32, (n+1)*w)
	dir := make([]byte, (n+1)*w)
	gap := opts.GapPenalty
	for i := 1; i <= n; i++ {
		score[i*w] = score[(i-1)*w] - gap
		dir[i*w] = dirUp
	}
	for j := 1; j <= m; j++ {
		score[j] = score[j-1] - gap
		dir[j] = dirLeft
	}
	for i := 1; i <= n; i++ {
		ms := opts.InstrMatchScore
		if ca[i-1] == ClassLabel {
			ms = opts.LabelMatchScore
		}
		for j := 1; j <= m; j++ {
			best, d := score[(i-1)*w+j]-gap, dirUp
			if s := score[i*w+j-1] - gap; s > best {
				best, d = s, dirLeft
			}
			if ClassesMatch(ca[i-1], cb[j-1]) {
				if s := score[(i-1)*w+j-1] + ms; s >= best {
					best, d = s, dirDiag
				}
			}
			score[i*w+j], dir[i*w+j] = best, d
		}
	}
	res := &Result{Score: score[n*w+m], MatrixBytes: int64(n+1) * int64(w) * 5}
	var rev []Pair
	for i, j := n, m; i > 0 || j > 0; {
		switch dir[i*w+j] {
		case dirDiag:
			rev = append(rev, Pair{A: &a[i-1], B: &b[j-1]})
			res.Matches++
			if ca[i-1] != ClassLabel {
				res.InstrMatches++
			}
			i, j = i-1, j-1
		case dirUp:
			rev = append(rev, Pair{A: &a[i-1]})
			i--
		default:
			rev = append(rev, Pair{B: &b[j-1]})
			j--
		}
	}
	for k := len(rev) - 1; k >= 0; k-- {
		res.Pairs = append(res.Pairs, rev[k])
	}
	return res
}

// classSeq wraps a class vector in a Seq. The kernel reads classes only;
// the entries exist to be pointed at by the pairs.
func classSeq(classes []int32) Seq {
	return Seq{Entries: make([]Entry, len(classes)), Classes: classes}
}

// randomClasses draws n classes: about one label in ten, one solo entry
// in thirty, the rest uniform over k instruction classes.
func randomClasses(rng *rand.Rand, n, k int) []int32 {
	out := make([]int32, n)
	for i := range out {
		switch r := rng.Intn(30); {
		case r < 3:
			out[i] = ClassLabel
		case r == 3:
			out[i] = classSolo
		default:
			out[i] = 1 + int32(rng.Intn(k))
		}
	}
	return out
}

// mutateClasses copies a, and at the given rate per entry substitutes,
// deletes or inserts a random one.
func mutateClasses(rng *rand.Rand, a []int32, rate float64, k int) []int32 {
	out := make([]int32, 0, len(a)+8)
	for _, c := range a {
		if rng.Float64() >= rate {
			out = append(out, c)
			continue
		}
		switch rng.Intn(3) {
		case 0:
			out = append(out, randomClasses(rng, 1, k)...)
		case 1:
		default:
			out = append(out, c)
			out = append(out, randomClasses(rng, 1, k)...)
		}
	}
	return out
}

// checkBand aligns sa and sb under every floor around the optimum and
// holds each outcome to the specification: ErrBelowBound exactly when the
// floor is armed (gap 0) and above the optimum, otherwise the
// specification's own score, counts and pairs. It returns the largest
// share of the matrix any of the runs filled.
func checkBand(t *testing.T, tag string, sa, sb Seq, opts Options) float64 {
	t.Helper()
	want := alignSpec(sa.Entries, sb.Entries, sa.Classes, sb.Classes, opts)
	cells := float64(len(sa.Classes)+1) * float64(len(sb.Classes)+1)
	var res Result
	worst := 0.0
	opt := want.Score
	for _, floor := range []int32{0, 1, opt / 2, opt - 1, opt, opt + 1, opt + 50} {
		opts.MinScore = floor
		err := AlignSeqsInto(context.Background(), sa, sb, opts, &res)
		if below := opts.GapPenalty == 0 && floor > 0 && opt < floor; below {
			if err != ErrBelowBound {
				t.Fatalf("%s floor %d: optimum %d is below the floor, got err %v", tag, floor, opt, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s floor %d (optimum %d): %v", tag, floor, opt, err)
		}
		samePairs(t, fmt.Sprintf("%s floor %d", tag, floor), &res, want)
		worst = max(worst, float64(res.filled)/cells)
	}
	return worst
}

// TestBandMatchesFullMatrix is the kernel's differential property test, at
// sizes where the ladder is on: mutated copies from identical to
// unrelated, with and without a gap penalty, every floor around the
// optimum. Besides exactness it bounds the work: no alignment may fill
// more than 1.5x its matrix, probe rungs included.
func TestBandMatchesFullMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	worst, banded, pairs := 0.0, 0, 0
	for trial := 0; trial < 6; trial++ {
		for _, rate := range []float64{0, .02, .05, .1, .3, .6, 1} {
			k := 2 + rng.Intn(13)
			a := randomClasses(rng, 40+rng.Intn(411), k)
			b := mutateClasses(rng, a, rate, k)
			if rng.Intn(4) == 0 {
				at := rng.Intn(len(b) + 1)
				b = append(b[:at:at], append(randomClasses(rng, 80, k), b[at:]...)...)
			}
			sa, sb := classSeq(a), classSeq(b)
			for _, gap := range []int32{0, 1} {
				opts := DefaultOptions()
				opts.GapPenalty = gap
				share := checkBand(t, fmt.Sprintf("trial %d rate %v gap %d", trial, rate, gap), sa, sb, opts)
				if gap == 0 && share < 0.5 {
					banded++
				}
				worst = max(worst, share)
				pairs++
			}
		}
	}
	if worst > 1.5 {
		t.Errorf("an alignment filled %.2fx its matrix, want <= 1.5x", worst)
	}
	if banded < 12 {
		t.Errorf("only %d pairs were decided inside a band: the test is not exercising it", banded)
	}
	t.Logf("%d pairs x 7 floors; worst fill %.2fx the matrix; %d pairs under half of it at every floor", pairs, worst, banded)
}

// mutatedPair is an n-entry class vector and its copy at 5% mutation.
func mutatedPair(seed int64, n int) (Seq, Seq) {
	rng := rand.New(rand.NewSource(seed))
	a := randomClasses(rng, n, 14)
	return classSeq(a), classSeq(mutateClasses(rng, a, 0.05, 14))
}

// TestBandLargePairFootprint pins what the band is for: a 4,000-entry pair
// at 5% mutation fills under a quarter of its 16 M cells and, run cold
// (pools flushed), allocates under 8 MiB where the quadratic slab took 84.
func TestBandLargePairFootprint(t *testing.T) {
	sa, sb := mutatedPair(5, 4000)
	opts := DefaultOptions()
	res := Result{buf: make([]Pair, len(sa.Entries)+len(sb.Entries))}
	runtime.GC()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if err := AlignSeqsInto(context.Background(), sa, sb, opts, &res); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	cells := int64(len(sa.Classes)+1) * int64(len(sb.Classes)+1)
	if res.MatrixBytes != cells*5 {
		t.Errorf("MatrixBytes = %d, want the logical %d", res.MatrixBytes, cells*5)
	}
	if share := float64(res.filled) / float64(cells); share > 0.25 {
		t.Errorf("filled %.3f of the matrix, want <= 0.25", share)
	}
	if got := m1.TotalAlloc - m0.TotalAlloc; got > 8<<20 {
		t.Errorf("a cold alignment allocated %d bytes, want under 8 MiB", got)
	}
	t.Logf("%d cells, %d filled (%.3f), %d bytes allocated cold, score %d",
		cells, res.filled, float64(res.filled)/float64(cells), m1.TotalAlloc-m0.TotalAlloc, res.Score)
	if want := alignSpec(sa.Entries, sb.Entries, sa.Classes, sb.Classes, opts); want.Score != res.Score || len(want.Pairs) != len(res.Pairs) {
		t.Errorf("score %d over %d pairs, the full matrix has %d over %d", res.Score, len(res.Pairs), want.Score, len(want.Pairs))
	}
}

// countdownCtx reports cancellation from its n-th Err poll on.
type countdownCtx struct {
	context.Context
	n int
}

func (c *countdownCtx) Err() error {
	if c.n--; c.n < 0 {
		return context.Canceled
	}
	return nil
}

// TestBandCancelOnAnyRung cancels a 1,000-entry pair's alignment at every
// poll in turn — the kernel polls every 16 rows of every rung — and
// requires ctx.Err() back from each, then an exact result once the
// countdown outlasts the fill.
func TestBandCancelOnAnyRung(t *testing.T) {
	sa, sb := mutatedPair(6, 1000)
	var res Result
	polls := 0
	for ; ; polls++ {
		err := AlignSeqsInto(&countdownCtx{Context: context.Background(), n: polls}, sa, sb, DefaultOptions(), &res)
		if err == nil {
			break
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("poll %d: got %v, want context.Canceled", polls, err)
		}
		if len(res.Pairs) != 0 {
			t.Fatalf("poll %d: a cancelled alignment left %d pairs", polls, len(res.Pairs))
		}
		if polls > 1<<12 {
			t.Fatal("alignment never completed")
		}
	}
	// One rung of 1,000 rows polls 62 times; more means the cancellation
	// was also exercised on a retry rung.
	if polls <= len(sa.Classes)/(cancelStride+1) {
		t.Errorf("completed after %d polls: only one rung ran, the ladder was not exercised", polls)
	}
}

// FuzzAlignBand holds the kernel to the full-matrix specification on
// arbitrary class vectors and floors.
func FuzzAlignBand(f *testing.F) {
	// Seeds past bandMinCells, so the ladder is on from the first input: a
	// near-copy (band), a reversal (probes fail), and a floor above the
	// optimum.
	long := bytes.Repeat([]byte("abcdefg\x00hij\xffkl"), 12)
	near := append(append([]byte("xy"), long[:90]...), long[97:]...)
	rev := make([]byte, len(long))
	for i, c := range long {
		rev[len(long)-1-i] = c
	}
	f.Add(long, near, int16(0))
	f.Add(long, near, int16(300))
	f.Add(long, rev, int16(20))
	f.Add([]byte{0, 1, 2, 255, 3}, []byte{3, 255, 2, 1, 0}, int16(0))
	f.Fuzz(func(t *testing.T, a, b []byte, floor int16) {
		if len(a) > 600 || len(b) > 600 {
			t.Skip()
		}
		// Byte 255 is a solo entry, the low values include the label class.
		classes := func(bs []byte) []int32 {
			out := make([]int32, len(bs))
			for i, c := range bs {
				out[i] = int32(c % 16)
				if c == 255 {
					out[i] = classSolo
				}
			}
			return out
		}
		sa, sb := classSeq(classes(a)), classSeq(classes(b))
		opts := DefaultOptions()
		want := alignSpec(sa.Entries, sb.Entries, sa.Classes, sb.Classes, opts)
		opts.MinScore = int32(floor)
		res, err := AlignSeqsCtx(context.Background(), sa, sb, opts)
		if floor > 0 && want.Score < int32(floor) {
			if err != ErrBelowBound {
				t.Fatalf("optimum %d below floor %d, got err %v", want.Score, floor, err)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		samePairs(t, "fuzz", res, want)
		if cells := int64(len(a)+1) * int64(len(b)+1); 2*res.filled > 3*cells {
			t.Fatalf("filled %d cells of a %d-cell matrix", res.filled, cells)
		}
	})
}
