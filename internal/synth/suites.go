package synth

// Suite profiles. Function counts for SPEC are scaled to roughly a tenth
// of the real programs so the full evaluation runs on a laptop; MiBench
// counts and sizes follow Table 1 of the paper exactly. CloneFrac /
// MutRate encode each program's similarity structure: C++ template-heavy
// code (dealII, parest, xalancbmk, omnetpp) has large low-divergence
// clone families, C programs have fewer and noisier ones. Loops/Floats
// raise cross-block live values and phi counts (what register demotion
// inflates most); ExcRate adds invoke/landingpad code to the C++
// programs.

// SPEC2006 returns the 19 C/C++ benchmark profiles of CPU2006.
func SPEC2006() []Profile {
	return []Profile{
		{Name: "400.perlbench", Seed: 2006_400, Funcs: 170, MinSize: 6, AvgSize: 52, MaxSize: 420, CloneFrac: 0.17, FamilySize: 3, MutRate: 0.096, Loops: 0.5, Switches: 0.6},
		{Name: "401.bzip2", Seed: 2006_401, Funcs: 60, MinSize: 8, AvgSize: 62, MaxSize: 380, CloneFrac: 0.12, FamilySize: 2, MutRate: 0.120, Loops: 0.7},
		{Name: "403.gcc", Seed: 2006_403, Funcs: 330, MinSize: 4, AvgSize: 44, MaxSize: 500, CloneFrac: 0.14, FamilySize: 3, MutRate: 0.120, Loops: 0.5, Switches: 0.8, Giants: 2, GiantSize: 850},
		{Name: "429.mcf", Seed: 2006_429, Funcs: 24, MinSize: 8, AvgSize: 42, MaxSize: 160, CloneFrac: 0.07, FamilySize: 2, MutRate: 0.120, Loops: 0.7},
		{Name: "433.milc", Seed: 2006_433, Funcs: 90, MinSize: 6, AvgSize: 48, MaxSize: 260, CloneFrac: 0.13, FamilySize: 2, MutRate: 0.112, Loops: 0.6, Floats: 0.35},
		{Name: "444.namd", Seed: 2006_444, Funcs: 64, MinSize: 12, AvgSize: 95, MaxSize: 480, CloneFrac: 0.26, FamilySize: 2, MutRate: 0.080, Loops: 0.8, Floats: 0.40, ExcRate: 0.02},
		{Name: "445.gobmk", Seed: 2006_445, Funcs: 240, MinSize: 4, AvgSize: 44, MaxSize: 300, CloneFrac: 0.11, FamilySize: 3, MutRate: 0.120, Loops: 0.4, Switches: 0.5},
		{Name: "447.dealII", Seed: 2006_447, Funcs: 260, MinSize: 4, AvgSize: 52, MaxSize: 420, CloneFrac: 0.36, FamilySize: 4, MutRate: 0.040, Loops: 0.5, Floats: 0.25, ExcRate: 0.05},
		{Name: "450.soplex", Seed: 2006_450, Funcs: 140, MinSize: 5, AvgSize: 56, MaxSize: 360, CloneFrac: 0.24, FamilySize: 3, MutRate: 0.080, Loops: 0.6, Floats: 0.30, ExcRate: 0.05},
		{Name: "453.povray", Seed: 2006_453, Funcs: 160, MinSize: 5, AvgSize: 58, MaxSize: 400, CloneFrac: 0.21, FamilySize: 3, MutRate: 0.096, Loops: 0.5, Floats: 0.35, ExcRate: 0.04},
		{Name: "456.hmmer", Seed: 2006_456, Funcs: 110, MinSize: 6, AvgSize: 60, MaxSize: 340, CloneFrac: 0.22, FamilySize: 2, MutRate: 0.064, Loops: 0.8},
		{Name: "458.sjeng", Seed: 2006_458, Funcs: 50, MinSize: 8, AvgSize: 56, MaxSize: 280, CloneFrac: 0.09, FamilySize: 2, MutRate: 0.120, Loops: 0.5, Switches: 0.7},
		{Name: "462.libquantum", Seed: 2006_462, Funcs: 36, MinSize: 5, AvgSize: 44, MaxSize: 180, CloneFrac: 0.23, FamilySize: 2, MutRate: 0.056, Loops: 0.8},
		{Name: "464.h264ref", Seed: 2006_464, Funcs: 160, MinSize: 6, AvgSize: 66, MaxSize: 420, CloneFrac: 0.14, FamilySize: 2, MutRate: 0.096, Loops: 0.7},
		{Name: "470.lbm", Seed: 2006_470, Funcs: 12, MinSize: 10, AvgSize: 85, MaxSize: 320, CloneFrac: 0.17, FamilySize: 2, MutRate: 0.096, Loops: 0.7, Floats: 0.50},
		{Name: "471.omnetpp", Seed: 2006_471, Funcs: 200, MinSize: 4, AvgSize: 40, MaxSize: 260, CloneFrac: 0.29, FamilySize: 4, MutRate: 0.072, Loops: 0.4, ExcRate: 0.06},
		{Name: "473.astar", Seed: 2006_473, Funcs: 30, MinSize: 6, AvgSize: 46, MaxSize: 200, CloneFrac: 0.11, FamilySize: 2, MutRate: 0.120, Loops: 0.6, ExcRate: 0.03},
		{Name: "482.sphinx3", Seed: 2006_482, Funcs: 120, MinSize: 5, AvgSize: 54, MaxSize: 300, CloneFrac: 0.22, FamilySize: 2, MutRate: 0.064, Loops: 0.8},
		{Name: "483.xalancbmk", Seed: 2006_483, Funcs: 300, MinSize: 4, AvgSize: 40, MaxSize: 280, CloneFrac: 0.31, FamilySize: 4, MutRate: 0.064, Loops: 0.4, ExcRate: 0.06},
	}
}

// SPEC2017 returns the 16 C/C++ benchmark profiles of CPU2017 evaluated
// in the paper.
func SPEC2017() []Profile {
	return []Profile{
		{Name: "508.namd_r", Seed: 2017_508, Funcs: 80, MinSize: 10, AvgSize: 95, MaxSize: 480, CloneFrac: 0.28, FamilySize: 2, MutRate: 0.080, Loops: 0.8, Floats: 0.40, ExcRate: 0.02},
		{Name: "510.parest_r", Seed: 2017_510, Funcs: 340, MinSize: 4, AvgSize: 50, MaxSize: 400, CloneFrac: 0.37, FamilySize: 4, MutRate: 0.040, Loops: 0.5, Floats: 0.30, ExcRate: 0.05},
		{Name: "511.povray_r", Seed: 2017_511, Funcs: 160, MinSize: 5, AvgSize: 58, MaxSize: 400, CloneFrac: 0.21, FamilySize: 3, MutRate: 0.096, Loops: 0.5, Floats: 0.35, ExcRate: 0.04},
		{Name: "526.blender_r", Seed: 2017_526, Funcs: 420, MinSize: 4, AvgSize: 46, MaxSize: 380, CloneFrac: 0.19, FamilySize: 3, MutRate: 0.096, Loops: 0.5, Floats: 0.30, ExcRate: 0.03},
		{Name: "600.perlbench_s", Seed: 2017_600, Funcs: 180, MinSize: 6, AvgSize: 52, MaxSize: 420, CloneFrac: 0.17, FamilySize: 3, MutRate: 0.096, Loops: 0.5, Switches: 0.6},
		{Name: "602.gcc_s", Seed: 2017_602, Funcs: 380, MinSize: 4, AvgSize: 44, MaxSize: 500, CloneFrac: 0.14, FamilySize: 3, MutRate: 0.120, Loops: 0.5, Switches: 0.8, Giants: 2, GiantSize: 700},
		{Name: "605.mcf_s", Seed: 2017_605, Funcs: 28, MinSize: 8, AvgSize: 42, MaxSize: 160, CloneFrac: 0.07, FamilySize: 2, MutRate: 0.120, Loops: 0.7},
		{Name: "619.lbm_s", Seed: 2017_619, Funcs: 14, MinSize: 10, AvgSize: 85, MaxSize: 320, CloneFrac: 0.17, FamilySize: 2, MutRate: 0.112, Loops: 0.7, Floats: 0.50},
		{Name: "620.omnetpp_s", Seed: 2017_620, Funcs: 220, MinSize: 4, AvgSize: 40, MaxSize: 260, CloneFrac: 0.29, FamilySize: 4, MutRate: 0.072, Loops: 0.4, ExcRate: 0.06},
		{Name: "623.xalancbmk_s", Seed: 2017_623, Funcs: 320, MinSize: 4, AvgSize: 40, MaxSize: 280, CloneFrac: 0.31, FamilySize: 4, MutRate: 0.064, Loops: 0.4, ExcRate: 0.06},
		{Name: "625.x264_s", Seed: 2017_625, Funcs: 170, MinSize: 6, AvgSize: 64, MaxSize: 420, CloneFrac: 0.13, FamilySize: 2, MutRate: 0.112, Loops: 0.7},
		{Name: "631.deepsjeng_s", Seed: 2017_631, Funcs: 56, MinSize: 8, AvgSize: 56, MaxSize: 280, CloneFrac: 0.10, FamilySize: 2, MutRate: 0.120, Loops: 0.5, Switches: 0.7},
		{Name: "638.imagick_s", Seed: 2017_638, Funcs: 260, MinSize: 5, AvgSize: 55, MaxSize: 380, CloneFrac: 0.17, FamilySize: 3, MutRate: 0.096, Loops: 0.6, Floats: 0.35},
		{Name: "641.leela_s", Seed: 2017_641, Funcs: 90, MinSize: 5, AvgSize: 48, MaxSize: 260, CloneFrac: 0.23, FamilySize: 3, MutRate: 0.072, Loops: 0.5, ExcRate: 0.04},
		{Name: "644.nab_s", Seed: 2017_644, Funcs: 80, MinSize: 6, AvgSize: 52, MaxSize: 300, CloneFrac: 0.17, FamilySize: 2, MutRate: 0.096, Loops: 0.7, Floats: 0.35},
		{Name: "657.xz_s", Seed: 2017_657, Funcs: 110, MinSize: 5, AvgSize: 46, MaxSize: 260, CloneFrac: 0.22, FamilySize: 2, MutRate: 0.072, Loops: 0.6},
	}
}

// MiBench returns the 23 MiBench program profiles. Function counts and
// min/avg/max sizes follow Table 1 of the paper exactly; CloneFrac is
// set so programs the paper reports as merge-rich (cjpeg, djpeg,
// ghostscript, typeset, pgp) contain correspondingly many clone
// families, while programs with no reported merges get none.
func MiBench() []Profile {
	return []Profile{
		{Name: "CRC32", Seed: 9101, Funcs: 4, MinSize: 8, AvgSize: 24, MaxSize: 37, Loops: 0.6},
		{Name: "FFT", Seed: 9102, Funcs: 7, MinSize: 6, AvgSize: 45, MaxSize: 131, Loops: 0.7, Floats: 0.4},
		{Name: "adpcm_c", Seed: 9103, Funcs: 3, MinSize: 35, AvgSize: 68, MaxSize: 93, Loops: 0.7},
		{Name: "adpcm_d", Seed: 9104, Funcs: 3, MinSize: 35, AvgSize: 68, MaxSize: 93, Loops: 0.7},
		{Name: "basicmath", Seed: 9105, Funcs: 5, MinSize: 4, AvgSize: 60, MaxSize: 204, Loops: 0.6, Floats: 0.4},
		{Name: "bitcount", Seed: 9106, Funcs: 19, MinSize: 4, AvgSize: 21, MaxSize: 56, CloneFrac: 0.23, FamilySize: 2, MutRate: 0.080, Loops: 0.4},
		{Name: "blowfish_d", Seed: 9107, Funcs: 8, MinSize: 1, AvgSize: 231, MaxSize: 790, CloneFrac: 0.14, FamilySize: 2, MutRate: 0.080, Loops: 0.6},
		{Name: "blowfish_e", Seed: 9108, Funcs: 8, MinSize: 1, AvgSize: 231, MaxSize: 790, CloneFrac: 0.14, FamilySize: 2, MutRate: 0.080, Loops: 0.6},
		{Name: "cjpeg", Seed: 9109, Funcs: 322, MinSize: 1, AvgSize: 93, MaxSize: 1198, CloneFrac: 0.10, FamilySize: 2, MutRate: 0.088, Loops: 0.6, Switches: 0.4},
		{Name: "dijkstra", Seed: 9110, Funcs: 6, MinSize: 2, AvgSize: 32, MaxSize: 83, Loops: 0.6},
		{Name: "djpeg", Seed: 9111, Funcs: 310, MinSize: 1, AvgSize: 91, MaxSize: 1198, CloneFrac: 0.10, FamilySize: 2, MutRate: 0.088, Loops: 0.6, Switches: 0.4},
		// ghostscript is scaled 5x down (3452 functions in Table 1) to keep
		// the full evaluation tractable, so its merge counts compare against
		// the paper's divided by 5.
		{Name: "ghostscript", Seed: 9112, Funcs: 690, MinSize: 1, AvgSize: 50, MaxSize: 3749, CloneFrac: 0.11, FamilySize: 2, MutRate: 0.080, Loops: 0.5, Switches: 0.5},
		{Name: "gsm", Seed: 9113, Funcs: 69, MinSize: 1, AvgSize: 92, MaxSize: 696, CloneFrac: 0.15, FamilySize: 2, MutRate: 0.080, Loops: 0.7},
		{Name: "ispell", Seed: 9114, Funcs: 84, MinSize: 1, AvgSize: 97, MaxSize: 1004, CloneFrac: 0.11, FamilySize: 2, MutRate: 0.088, Loops: 0.6},
		{Name: "patricia", Seed: 9115, Funcs: 5, MinSize: 1, AvgSize: 74, MaxSize: 160, Loops: 0.6},
		{Name: "pgp", Seed: 9116, Funcs: 310, MinSize: 1, AvgSize: 80, MaxSize: 1706, CloneFrac: 0.07, FamilySize: 2, MutRate: 0.096, Loops: 0.6},
		{Name: "qsort", Seed: 9117, Funcs: 2, MinSize: 11, AvgSize: 46, MaxSize: 80, Loops: 0.6},
		{Name: "rijndael", Seed: 9118, Funcs: 7, MinSize: 45, AvgSize: 444, MaxSize: 1182, CloneFrac: 0.17, FamilySize: 2, MutRate: 0.064, Loops: 0.6},
		{Name: "rsynth", Seed: 9119, Funcs: 47, MinSize: 1, AvgSize: 84, MaxSize: 716, CloneFrac: 0.06, FamilySize: 2, MutRate: 0.080, Loops: 0.6},
		{Name: "sha", Seed: 9120, Funcs: 7, MinSize: 12, AvgSize: 50, MaxSize: 147, CloneFrac: 0.17, FamilySize: 2, MutRate: 0.064, Loops: 0.6},
		{Name: "stringsearch", Seed: 9121, Funcs: 10, MinSize: 3, AvgSize: 41, MaxSize: 81, CloneFrac: 0.12, FamilySize: 2, MutRate: 0.064, Loops: 0.5},
		{Name: "susan", Seed: 9122, Funcs: 19, MinSize: 15, AvgSize: 275, MaxSize: 1153, CloneFrac: 0.12, FamilySize: 2, MutRate: 0.072, Loops: 0.7},
		{Name: "typeset", Seed: 9123, Funcs: 362, MinSize: 1, AvgSize: 328, MaxSize: 2500, CloneFrac: 0.17, FamilySize: 2, MutRate: 0.080, Loops: 0.5, Switches: 0.5},
	}
}

// PaperMiBenchMerges maps MiBench program names to the (FMSA, SalSSA)
// merge counts of Table 1 at t=1.
var PaperMiBenchMerges = map[string][2]int{
	"CRC32": {0, 0}, "FFT": {0, 0}, "adpcm_c": {0, 0}, "adpcm_d": {0, 0},
	"basicmath": {0, 0}, "bitcount": {3, 3}, "blowfish_d": {0, 1},
	"blowfish_e": {0, 1}, "cjpeg": {7, 26}, "dijkstra": {0, 0},
	"djpeg": {10, 28}, "ghostscript": {211, 327}, "gsm": {6, 9},
	"ispell": {3, 8}, "patricia": {0, 0}, "pgp": {8, 19}, "qsort": {0, 0},
	"rijndael": {1, 1}, "rsynth": {1, 2}, "sha": {0, 1},
	"stringsearch": {1, 1}, "susan": {1, 2}, "typeset": {27, 53},
}

// ByName returns the profile with the given name from the list.
func ByName(profiles []Profile, name string) (Profile, bool) {
	for _, p := range profiles {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}
