package search

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/synth"
)

// goldenHashDigests folds, per suite profile, the HashFunction value of
// every function of synth.Generate(profile) — declarations included, in
// module order — into one FNV-1a word. Hash values are persisted in
// snapshots and plans, so any change to how a function hashes must show
// up here; the values were recorded with the map-based value numbering
// this file's hashing replaced.
var goldenHashDigests = map[string]uint64{
	"400.perlbench":  0x46427b2884cbed8e,
	"401.bzip2":      0xe3879f79f8c50216,
	"403.gcc":        0xa1a7605dd5c0f4d4,
	"429.mcf":        0xba95888935969f58,
	"433.milc":       0x2fa2b573e9609270,
	"444.namd":       0x0d066f4e254a912e,
	"445.gobmk":      0x2d044e4d50678e34,
	"447.dealII":     0x90d4785454b822bc,
	"450.soplex":     0x7374cdb5b4fb1159,
	"453.povray":     0x65482d90f0095699,
	"456.hmmer":      0x4d3b11b4641254c6,
	"458.sjeng":      0x901bce2eb641e7d7,
	"462.libquantum": 0xc488d2909e62af66,
	"464.h264ref":    0x27d83bf11e07bada,
	"470.lbm":        0x027c5115f926db15,
	"471.omnetpp":    0x848399556a24136b,
	"473.astar":      0xd82146c739247d96,
	"482.sphinx3":    0xc1a639e9bec4000f,
	"483.xalancbmk":  0x6fff819dfc20bf6f,
	"CRC32":          0x10906c4570ba1c04,
	"FFT":            0x47e78fefddf6535e,
	"adpcm_c":        0xd266aea34d5abaa6,
	"adpcm_d":        0x9905d754720edc20,
	"basicmath":      0x7f8045314f1c4547,
	"bitcount":       0x83141e3a97af715e,
	"blowfish_d":     0x14f71815e311d1aa,
	"blowfish_e":     0x5a070dd8b0842dc0,
	"cjpeg":          0xa62f68e1e09e7aa6,
	"dijkstra":       0xbd7f443cec28157f,
	"djpeg":          0xfcea6fd353914d7b,
	"ghostscript":    0x9b8e6ef71718c182,
	"gsm":            0x7fdc35385e33dad5,
	"ispell":         0x1a21490a020c85de,
	"patricia":       0xaf7c0ea7b0f5a7a5,
	"pgp":            0xfe752fb0cd958e50,
	"qsort":          0x8d9bf1520ee230d4,
	"rijndael":       0x6b1ebb9d9a5796e1,
	"rsynth":         0x3bbae23c54f6eb62,
	"sha":            0x74bd2a7e4ce9c086,
	"stringsearch":   0xcd785f723a3776a7,
	"susan":          0xdb22a3d899205089,
	"typeset":        0x24524834643fa43b,
}

// hashDigest is the per-profile fold goldenHashDigests records, and the
// number of functions it covered.
func hashDigest(p synth.Profile) (uint64, int) {
	s := newHasher()
	m := synth.Generate(p)
	for _, f := range m.Funcs {
		s.word(HashFunction(f))
	}
	return s.h, len(m.Funcs)
}

// TestHashGolden holds HashFunction to the values recorded before its
// value numbering moved from a map to the indices package ir maintains.
func TestHashGolden(t *testing.T) {
	profiles := append(synth.SPEC2006(), synth.MiBench()...)
	total := 0
	for _, p := range profiles {
		got, n := hashDigest(p)
		total += n
		want, ok := goldenHashDigests[p.Name]
		if !ok {
			t.Errorf("%s: no golden digest (got %#016x over %d functions)", p.Name, got, n)
			continue
		}
		if got != want {
			t.Errorf("%s: hash digest %#016x over %d functions, want %#016x", p.Name, got, n, want)
		}
	}
	t.Logf("%d functions over %d profiles", total, len(profiles))
}

// paperSuites generates every profile of SPEC2006, SPEC2017 and
// MiBench.
func paperSuites() []*ir.Module {
	var out []*ir.Module
	for _, suite := range [][]synth.Profile{synth.SPEC2006(), synth.SPEC2017(), synth.MiBench()} {
		for _, p := range suite {
			out = append(out, synth.Generate(p))
		}
	}
	return out
}

// TestHashFunctionAllocatesNothing: HashFunction prints types into its
// hasher's own buffer and numbers blocks in its own table, both
// recycled, so hashing every function of the three paper suites
// allocates nothing once the scratch has grown to fit the largest.
func TestHashFunctionAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled objects at random")
	}
	var funcs []*ir.Function
	for _, m := range paperSuites() {
		funcs = append(funcs, m.Funcs...)
	}
	if n := testing.AllocsPerRun(3, func() {
		for _, f := range funcs {
			HashFunction(f)
		}
	}); n != 0 {
		t.Fatalf("hashing %d suite functions allocates %v times, want 0", len(funcs), n)
	}
	t.Logf("%d functions hashed without allocating", len(funcs))
}
