package search

import (
	"math/rand"
	"testing"
)

// projDistanceSpec is the scalar lane loop projDistance replaced: one
// subtraction and one absolute value per byte lane.
func projDistanceSpec(a, b uint64) int32 {
	var d int32
	for i := 0; i < projLanes; i++ {
		x := int32(a&0xff) - int32(b&0xff)
		if x < 0 {
			x = -x
		}
		d += x
		a >>= 8
		b >>= 8
	}
	return d
}

// TestProjDistanceMatchesSpec holds the SWAR bound to the lane loop on
// random words, on words whose lanes take only the extreme values (0,
// 1, 0x7f, 0x80, 0xfe, 0xff — saturated lanes among them), and on every
// pair of single-lane values.
func TestProjDistanceMatchesSpec(t *testing.T) {
	check := func(a, b uint64) {
		t.Helper()
		if got, want := projDistance(a, b), projDistanceSpec(a, b); got != want {
			t.Fatalf("projDistance(%#016x, %#016x) = %d, want %d", a, b, got, want)
		}
	}
	for x := uint64(0); x < 256; x++ {
		for y := uint64(0); y < 256; y++ {
			for lane := 0; lane < projLanes; lane += 7 {
				check(x<<(8*lane), y<<(8*lane))
			}
		}
	}
	extremes := []uint64{0, 1, 0x7f, 0x80, 0xfe, 0xff}
	rng := rand.New(rand.NewSource(1))
	word := func() uint64 {
		var w uint64
		for i := 0; i < projLanes; i++ {
			w |= extremes[rng.Intn(len(extremes))] << (8 * i)
		}
		return w
	}
	for i := 0; i < 200000; i++ {
		check(word(), word())
		check(rng.Uint64(), rng.Uint64())
	}
	check(^uint64(0), 0)
	check(0, ^uint64(0))
}

// FuzzProjDistance compares the SWAR bound with the lane loop on any two
// words.
func FuzzProjDistance(f *testing.F) {
	f.Add(uint64(0), uint64(0))
	f.Add(^uint64(0), uint64(0))
	f.Add(uint64(0xff00ff00ff00ff00), uint64(0x00ff00ff00ff00ff))
	f.Add(uint64(0x80808080808080ff), uint64(0x7f7f7f7f7f7f7f00))
	f.Fuzz(func(t *testing.T, a, b uint64) {
		if got, want := projDistance(a, b), projDistanceSpec(a, b); got != want {
			t.Fatalf("projDistance(%#016x, %#016x) = %d, want %d", a, b, got, want)
		}
	})
}
