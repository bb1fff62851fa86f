package transform

import "repro/internal/ir"

// Pending names the pass Settled found work for ("" if none), so that
// the coverage floor in settled_test.go can say which trigger a miss
// came from.
var Pending = pending

// SimplifySpec, FoldFixpointSpec and SetFixpointEntry are for the
// external tests, which can reach the code generator.
var (
	SimplifySpec     = simplifySpec
	FoldFixpointSpec = foldFixpointSpec
)

func SetFixpointEntry(entry func(f *ir.Function)) { fixpointEntry = entry }
