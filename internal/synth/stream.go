package synth

import (
	"math"
	"math/rand"

	"repro/internal/ir"
	"repro/internal/transform"
)

// Builder emits functions into one module incrementally, one call at a
// time, instead of Generate's all-at-once construction. It is the
// substrate of internal/corpus: a million-function stream cannot afford
// to decide every size up front or hold intermediate state per
// function, so the Builder samples sizes on demand and keeps only the
// size calibration and the library groups between calls. All
// randomness comes from the explicit rng; two Builders driven by
// identically seeded rngs produce identical functions regardless of
// how the calls are batched.
type Builder struct {
	m   *ir.Module
	rng *rand.Rand
	p   Profile
	cal *sizeCalibration
	lib [][]*ir.Function
}

// NewBuilder prepares m for incremental generation under profile p
// (declaring the external library if absent) and returns the builder.
// Only the shape fields of p are consulted (sizes, Loops, Floats,
// ExcRate, Switches, MutRate); Funcs and CloneFrac are the caller's
// business.
func NewBuilder(m *ir.Module, rng *rand.Rand, p Profile) *Builder {
	declareLib(m)
	return &Builder{m: m, rng: rng, p: p, cal: newCalibration(), lib: libOf(m)}
}

// SampleSize draws one post-promotion size target from the profile's
// log-normal-ish distribution, clamped to [MinSize, MaxSize].
func (b *Builder) SampleSize() int {
	min, avg, max := b.p.MinSize, b.p.AvgSize, b.p.MaxSize
	if min < 1 {
		min = 1
	}
	if max < min {
		max = min
	}
	v := float64(avg) * math.Exp(b.rng.NormFloat64()*0.6)
	if v < float64(min) {
		v = float64(min)
	}
	if v > float64(max) {
		v = float64(max)
	}
	return int(v)
}

// Build generates one function named name at the given post-promotion
// size target, promotes it to natural SSA and feeds the measured size
// back into the calibration.
func (b *Builder) Build(name string, size int) *ir.Function {
	sh := shape{
		size:     b.cal.budget(size),
		loops:    0.10 + 0.25*b.p.Loops,
		floats:   b.p.Floats,
		excRate:  b.p.ExcRate,
		switches: 0.08 * b.p.Switches,
	}
	f := buildFunction(b.m, b.rng, b.lib, name, 1+b.rng.Intn(3), sh)
	transform.Mem2Reg(f)
	transform.Simplify(f)
	b.cal.observe(sh.size, f.NumInstrs())
	return f
}

// Clone adds a mutated copy of tmpl to the module under name. The
// mutation rate is per instruction, as in Generate's clone families.
func (b *Builder) Clone(tmpl *ir.Function, name string, mutRate float64) *ir.Function {
	clone, _ := ir.CloneFunction(tmpl, name)
	b.m.AddFunc(clone)
	mutate(b.rng, clone, b.lib, mutRate)
	return clone
}
