package core

import (
	"flag"
	"fmt"
	"os"
	"testing"

	"repro/internal/ir"
	"repro/internal/transform"
)

// TestMain holds every clean-up pass the package's tests reach — SSA
// repair's fold fixpoint and Simplify alike — to its due filter: a block
// a pass skips must be one its trigger is quiet at. It also poisons
// every body the tests release (ir.ReleaseCheck), so none is reused
// while a stale pointer could still reach it. Benchmark runs go
// without, since the check pays for every trigger the filter saves and
// the benchmarks time the pools.
func TestMain(m *testing.M) {
	flag.Parse()
	if flag.Lookup("test.bench").Value.String() == "" {
		ir.ReleaseCheck = func(*ir.Function) {}
		transform.SkipCheck = func(pass string, f *ir.Function, b *ir.Block) {
			panic(fmt.Sprintf("transform: %s skipped a block of @%s its trigger fires at\n%s", pass, f.Name(), f))
		}
	}
	os.Exit(m.Run())
}
