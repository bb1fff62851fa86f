package synth

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/ir"
	"repro/internal/transform"
)

// Profile parameterises one synthetic benchmark program.
type Profile struct {
	// Name is the benchmark name (e.g. "447.dealII").
	Name string
	// Seed drives all randomness; generation is fully deterministic.
	Seed int64
	// Funcs is the number of defined functions.
	Funcs int
	// MinSize/AvgSize/MaxSize target the post-promotion IR instruction
	// counts (Table 1's size measure).
	MinSize, AvgSize, MaxSize int
	// CloneFrac is the fraction of functions belonging to clone
	// families (C++-template-like similarity structure).
	CloneFrac float64
	// FamilySize is the number of members per clone family (>= 2).
	FamilySize int
	// MutRate is the per-instruction mutation probability distinguishing
	// family members.
	MutRate float64
	// Loops, Floats, ExcRate and Switches shape the generated bodies.
	Loops, Floats, ExcRate, Switches float64
	// Giants adds one family of near-identical functions of GiantSize
	// instructions (403.gcc's recog_16/recog_26 pair, the paper's peak
	// memory driver).
	Giants    int
	GiantSize int
}

// sizeCalibration adaptively converts post-promotion size targets into
// pre-promotion instruction budgets (promotion removes the loads/stores
// the C-like generator emits around every statement; how many depends on
// the profile's control-flow mix, so the ratio is learned as functions
// are built).
type sizeCalibration struct{ ratio float64 }

func newCalibration() *sizeCalibration { return &sizeCalibration{ratio: 2.0} }

func (c *sizeCalibration) budget(target int) int {
	b := int(float64(target) * c.ratio)
	if b < 6 {
		b = 6
	}
	return b
}

// observe blends the measured budget-per-result ratio into the estimate.
func (c *sizeCalibration) observe(budget, got int) {
	if got <= 0 {
		return
	}
	r := float64(budget) / float64(got) // pre-budget per post-instruction
	if r < 1 {
		r = 1
	}
	if r > 6 {
		r = 6
	}
	c.ratio = 0.7*c.ratio + 0.3*r
}

// sizeList produces n sizes matching the profile's min/avg/max targets:
// the extremes appear exactly once (for n >= 2) and the mean is adjusted
// towards AvgSize.
func sizeList(p Profile, rng *rand.Rand) []int {
	n := p.Funcs
	min, avg, max := p.MinSize, p.AvgSize, p.MaxSize
	if min < 1 {
		min = 1
	}
	if max < min {
		max = min
	}
	sizes := make([]int, n)
	if n == 1 {
		sizes[0] = avg
		return sizes
	}
	sizes[0] = min
	sizes[n-1] = max
	for i := 1; i < n-1; i++ {
		// Log-normal-ish sample centred on avg, clamped to [min, max].
		v := float64(avg) * math.Exp(rng.NormFloat64()*0.6)
		if v < float64(min) {
			v = float64(min)
		}
		if v > float64(max) {
			v = float64(max)
		}
		sizes[i] = int(v)
	}
	// Adjust interior sizes towards the target mean.
	target := avg * n
	for iter := 0; iter < 1000; iter++ {
		sum := 0
		for _, s := range sizes {
			sum += s
		}
		if sum == target {
			break
		}
		i := 1 + rng.Intn(n-1)
		if i == n-1 {
			continue
		}
		if sum < target && sizes[i] < max {
			sizes[i]++
		} else if sum > target && sizes[i] > min {
			sizes[i]--
		}
	}
	return sizes
}

// SuiteProfile is the standard benchmark corpus shape — the
// "sess2k"-style clone-heavy suite the Session benchmarks and the
// fmerged load generator share, parameterized by function count and
// seed so smoke tests can scale it down without drifting from the
// benchmark's distribution.
func SuiteProfile(funcs int, seed int64) Profile {
	return Profile{
		Name: "sess2k", Seed: seed, Funcs: funcs,
		MinSize: 6, AvgSize: 40, MaxSize: 220,
		CloneFrac: 0.4, FamilySize: 4, MutRate: 0.06,
		Loops: 0.5, Switches: 0.4,
	}
}

// Generate builds the synthetic module for p, deriving all randomness
// from p.Seed.
func Generate(p Profile) *ir.Module {
	return GenerateWith(rand.New(rand.NewSource(p.Seed)), p)
}

// GenerateWith is Generate drawing every random decision from an
// explicit rng instead of seeding one from p.Seed. Callers that reuse a
// corpus across tests (or interleave several generators) own the rng,
// so generation order stays deterministic no matter who else draws
// random numbers in the process.
func GenerateWith(rng *rand.Rand, p Profile) *ir.Module {
	m := ir.NewModule()
	declareLib(m)
	lib := libOf(m)

	if p.FamilySize < 2 {
		p.FamilySize = 2
	}
	sizes := sizeList(p, rng)
	// Largest sizes first so families (built first) get the bigger,
	// more profitable bodies — mirroring template-heavy code where the
	// instantiated functions are substantial.
	for i, j := 0, len(sizes)-1; i < j; i, j = i+1, j-1 {
		sizes[i], sizes[j] = sizes[j], sizes[i]
	}

	cal := newCalibration()
	sh := func(size int) shape {
		return shape{
			size:     cal.budget(size),
			loops:    0.10 + 0.25*p.Loops,
			floats:   p.Floats,
			excRate:  p.ExcRate,
			switches: 0.08 * p.Switches,
		}
	}
	// buildPromoted builds one function, immediately promotes it to
	// natural SSA and feeds the measured size back into the calibration.
	buildPromoted := func(name string, nparams, size int) *ir.Function {
		s := sh(size)
		f := buildFunction(m, rng, lib, name, nparams, s)
		transform.Mem2Reg(f)
		transform.Simplify(f)
		cal.observe(s.size, f.NumInstrs())
		return f
	}

	idx := 0
	nextSize := func() int {
		s := p.AvgSize
		if idx < len(sizes) {
			s = sizes[idx]
		}
		idx++
		return s
	}

	total := p.Funcs
	built := 0
	fam := 0
	// Giant family first (gcc's recog pair). Clones are made from the
	// promoted template, so family members share their SSA structure.
	if p.Giants >= 2 {
		tmpl := buildPromoted(fmt.Sprintf("%s_giant0", ident(p.Name)), 2, p.GiantSize)
		built++
		for g := 1; g < p.Giants && built < total; g++ {
			clone, _ := ir.CloneFunction(tmpl, fmt.Sprintf("%s_giant%d", ident(p.Name), g))
			m.AddFunc(clone)
			mutate(rng, clone, lib, p.MutRate*0.5)
			built++
		}
	}
	cloned := int(p.CloneFrac * float64(total))
	for built < total {
		size := nextSize()
		if built < cloned {
			// A clone family: template plus mutated copies.
			members := p.FamilySize
			if left := total - built; members > left {
				members = left
			}
			tmpl := buildPromoted(fmt.Sprintf("%s_t%02d_m0", ident(p.Name), fam), 1+rng.Intn(3), size)
			built++
			for k := 1; k < members; k++ {
				clone, _ := ir.CloneFunction(tmpl, fmt.Sprintf("%s_t%02d_m%d", ident(p.Name), fam, k))
				m.AddFunc(clone)
				mutate(rng, clone, lib, p.MutRate)
				built++
			}
			fam++
			continue
		}
		buildPromoted(fmt.Sprintf("%s_u%03d", ident(p.Name), built), 1+rng.Intn(3), size)
		built++
	}
	return m
}

// ident sanitises a benchmark name for use in function identifiers.
func ident(name string) string {
	out := make([]byte, 0, len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
			out = append(out, c)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}

// Stats summarises a generated module the way Table 1 does.
type Stats struct {
	Funcs                  int
	MinSize, MaxSize       int
	AvgSize                float64
	TotalInstrs, PhiInstrs int
}

// ModuleStats computes Table 1-style statistics for m.
func ModuleStats(m *ir.Module) Stats {
	st := Stats{MinSize: 1 << 30}
	for _, f := range m.Defined() {
		n := f.NumInstrs()
		st.Funcs++
		st.TotalInstrs += n
		if n < st.MinSize {
			st.MinSize = n
		}
		if n > st.MaxSize {
			st.MaxSize = n
		}
		f.Instrs(func(in *ir.Instruction) bool {
			if in.Op() == ir.OpPhi {
				st.PhiInstrs++
			}
			return true
		})
	}
	if st.Funcs > 0 {
		st.AvgSize = float64(st.TotalInstrs) / float64(st.Funcs)
	} else {
		st.MinSize = 0
	}
	return st
}
