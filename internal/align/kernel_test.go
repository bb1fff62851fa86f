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

// specMatrix is the plain Needleman–Wunsch fill over class vectors the
// kernel is held to: the whole (n+1)x(m+1) score matrix, row-major, and
// the direction each cell's maximum was taken from — up first, left only
// if strictly greater, diagonal if a match ties or beats that.
func specMatrix(ca, cb []int32) (score []int32, dir []byte) {
	n, m := len(ca), len(cb)
	w := m + 1
	score = make([]int32, (n+1)*w)
	dir = make([]byte, (n+1)*w)
	for i := 1; i <= n; i++ {
		dir[i*w] = dirUp
	}
	for j := 1; j <= m; j++ {
		dir[j] = dirLeft
	}
	for i := 1; i <= n; i++ {
		ms := int32(2)
		if ca[i-1] == ClassLabel {
			ms = 1
		}
		for j := 1; j <= m; j++ {
			best, d := score[(i-1)*w+j], byte(dirUp)
			if s := score[i*w+j-1]; s > best {
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
	return score, dir
}

// alignSpec is the specification's alignment: specMatrix's optimum and
// the path its direction bytes trace back from (n,m).
func alignSpec(a, b []Entry, ca, cb []int32) *Result {
	score, dir := specMatrix(ca, cb)
	n, m := len(ca), len(cb)
	w := m + 1
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

// checkKernel aligns sa and sb and holds the outcome to the
// specification: its score, counts, MatrixBytes and pairs. A cap one
// cell short of the matrix is ErrTooLarge, a cap of exactly the matrix
// is not.
func checkKernel(t *testing.T, tag string, sa, sb Seq) {
	t.Helper()
	want := alignSpec(sa.Entries, sb.Entries, sa.Classes, sb.Classes)
	var res Result
	if err := AlignSeqsInto(context.Background(), sa, sb, DefaultOptions(), &res); err != nil {
		t.Fatalf("%s (optimum %d): %v", tag, want.Score, err)
	}
	samePairs(t, tag, &res, want)
	cells := want.MatrixBytes / 5
	if cells == 1 {
		return // a cap of 0 is no cap
	}
	if err := AlignSeqsInto(context.Background(), sa, sb, Options{MaxCells: cells - 1}, &res); err != ErrTooLarge {
		t.Fatalf("%s: MaxCells one short of %d cells: got err %v, want ErrTooLarge", tag, cells, err)
	}
	if err := AlignSeqsInto(context.Background(), sa, sb, Options{MaxCells: cells}, &res); err != nil {
		t.Fatalf("%s: MaxCells of exactly %d cells: %v", tag, cells, err)
	}
}

// repeat returns n copies of class c.
func repeat(c int32, n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = c
	}
	return out
}

// cat concatenates class vectors.
func cat(parts ...[]int32) []int32 {
	var out []int32
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// TestKernelMatchesSpec is the kernel's differential property test:
// mutated copies from identical to unrelated, and the inputs where bit
// rows have edges — empty sides, all-solo and solo-heavy sides, labels
// only, and expansions of 63, 64, 65 and 127–129 bits, where a row ends
// just short of, on, or just past a word boundary.
func TestKernelMatchesSpec(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 6; trial++ {
		for _, rate := range []float64{0, .02, .05, .1, .3, .6, 1} {
			k := 2 + rng.Intn(13)
			a := randomClasses(rng, 40+rng.Intn(411), k)
			b := mutateClasses(rng, a, rate, k)
			if rng.Intn(4) == 0 {
				at := rng.Intn(len(b) + 1)
				b = append(b[:at:at], append(randomClasses(rng, 80, k), b[at:]...)...)
			}
			checkKernel(t, fmt.Sprintf("trial %d rate %v", trial, rate), classSeq(a), classSeq(b))
		}
	}

	soloHeavy := func(n int) []int32 {
		out := randomClasses(rng, n, 3)
		for i := range out {
			if rng.Intn(3) > 0 {
				out[i] = classSolo
			}
		}
		return out
	}
	mixed := randomClasses(rng, 50, 4)
	edges := []struct {
		name string
		a, b []int32
	}{
		{"both empty", nil, nil},
		{"empty a", nil, mixed},
		{"empty b", mixed, nil},
		{"all-solo a", repeat(classSolo, 40), mixed},
		{"all-solo b", mixed, repeat(classSolo, 40)},
		{"all-solo both", repeat(classSolo, 5), repeat(classSolo, 7)},
		{"solo-heavy", soloHeavy(120), soloHeavy(130)},
		{"label-only", repeat(ClassLabel, 70), repeat(ClassLabel, 66)},
		{"labels against instructions", repeat(ClassLabel, 20), repeat(1, 20)},
		{"width 63", mixed, cat(repeat(1, 31), repeat(ClassLabel, 1))},
		{"width 64", mixed, repeat(1, 32)},
		{"width 65", mixed, cat(repeat(ClassLabel, 1), repeat(1, 32))},
		{"width 63 both", cat(repeat(1, 31), repeat(ClassLabel, 1)), cat(repeat(ClassLabel, 1), repeat(1, 31))},
		{"width 127", mixed, cat(repeat(2, 63), repeat(ClassLabel, 1))},
		{"width 128", cat(repeat(2, 70), mixed), repeat(2, 64)},
		{"width 129", cat(mixed, repeat(2, 70)), cat(repeat(2, 64), repeat(ClassLabel, 1))},
	}
	for _, e := range edges {
		checkKernel(t, e.name, classSeq(e.a), classSeq(e.b))
		checkKernel(t, e.name+" swapped", classSeq(e.b), classSeq(e.a))
	}
}

// TestKernelScoreMatrix checks the identity the kernel stands on: the
// optimum of every prefix pair, read back from the stored bit rows as
// pos(j) - popcount(V_i below pos(j)), is the specification's score
// matrix cell for cell.
func TestKernelScoreMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 40; trial++ {
		k := 1 + rng.Intn(6)
		a := randomClasses(rng, rng.Intn(160), k)
		b := mutateClasses(rng, a, rng.Float64(), k)
		if trial%2 == 1 {
			b = randomClasses(rng, rng.Intn(200), k)
		}
		score, _ := specMatrix(a, b)
		kr := getKernel()
		kr.index(b)
		if err := kr.fill(context.Background(), a); err != nil {
			t.Fatal(err)
		}
		for i := 0; i <= len(a); i++ {
			for j := 0; j <= len(b); j++ {
				got := kr.pos[j] - kr.below(i, kr.pos[j])
				if want := score[i*(len(b)+1)+j]; got != want {
					kr.release(b)
					t.Fatalf("trial %d: D(%d,%d) = %d, the full matrix has %d", trial, i, j, got, want)
				}
			}
		}
		kr.release(b)
	}
}

// mutatedPair is an n-entry class vector and its copy at 5% mutation.
func mutatedPair(seed int64, n int) (Seq, Seq) {
	rng := rand.New(rand.NewSource(seed))
	a := randomClasses(rng, n, 14)
	return classSeq(a), classSeq(mutateClasses(rng, a, 0.05, 14))
}

// unrelatedPair is two independent n-entry class vectors.
func unrelatedPair(seed int64, n int) (Seq, Seq) {
	rng := rand.New(rand.NewSource(seed))
	return classSeq(randomClasses(rng, n, 14)), classSeq(randomClasses(rng, n, 14))
}

// TestBandLargePairFootprint pins the kernel's memory: a 4,000-entry pair,
// at 5% mutation and unrelated, run cold (pools flushed), each allocates
// under 8 MiB — 16 M logical cells, where the quadratic slab took 84 MiB
// and a direction byte per cell 16 — and reproduces the full matrix.
func TestBandLargePairFootprint(t *testing.T) {
	s1, s2 := mutatedPair(5, 4000)
	u1, u2 := unrelatedPair(7, 4000)
	for _, c := range []struct {
		name   string
		sa, sb Seq
	}{{"similar", s1, s2}, {"unrelated", u1, u2}} {
		res := Result{buf: make([]Pair, len(c.sa.Entries)+len(c.sb.Entries))}
		runtime.GC()
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if err := AlignSeqsInto(context.Background(), c.sa, c.sb, DefaultOptions(), &res); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		got := m1.TotalAlloc - m0.TotalAlloc
		if got > 8<<20 {
			t.Errorf("%s: a cold alignment allocated %d bytes, want under 8 MiB", c.name, got)
		}
		t.Logf("%s: %d bytes allocated cold, score %d", c.name, got, res.Score)
		samePairs(t, c.name, &res, alignSpec(c.sa.Entries, c.sb.Entries, c.sa.Classes, c.sb.Classes))
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

// TestCancelDuringFill cancels a 1,000-entry pair's alignment at every
// poll in turn — the fill polls every 16 rows — and requires ctx.Err()
// back from each with no pairs, then an exact result once the countdown
// outlasts the fill.
func TestCancelDuringFill(t *testing.T) {
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
	if want := len(sa.Classes) / (cancelStride + 1); polls != want {
		t.Errorf("completed after %d polls, want one per 16 rows: %d", polls, want)
	}
	samePairs(t, "after cancellation", &res, alignSpec(sa.Entries, sb.Entries, sa.Classes, sb.Classes))

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := AlignSeqsInto(ctx, sa, sb, DefaultOptions(), &res); err != ctx.Err() {
		t.Errorf("a cancelled context: got %v, want %v", err, ctx.Err())
	}
}

// FuzzAlign holds the kernel to the full-matrix specification on
// arbitrary class vectors.
func FuzzAlign(f *testing.F) {
	long := bytes.Repeat([]byte("abcdefg\x00hij\xffkl"), 12)
	near := append(append([]byte("xy"), long[:90]...), long[97:]...)
	rev := make([]byte, len(long))
	for i, c := range long {
		rev[len(long)-1-i] = c
	}
	f.Add(long, near)
	f.Add(long, rev)
	f.Add([]byte{0, 1, 2, 255, 3}, []byte{3, 255, 2, 1, 0})
	f.Add([]byte{}, long)
	f.Fuzz(func(t *testing.T, a, b []byte) {
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
		want := alignSpec(sa.Entries, sb.Entries, sa.Classes, sb.Classes)
		res, err := AlignSeqsCtx(context.Background(), sa, sb, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		samePairs(t, "fuzz", res, want)
	})
}
