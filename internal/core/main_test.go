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
// a pass skips must be one its trigger is quiet at. Benchmark runs go
// without, since the check pays for every trigger the filter saves.
func TestMain(m *testing.M) {
	flag.Parse()
	if flag.Lookup("test.bench").Value.String() == "" {
		transform.SkipCheck = func(pass string, f *ir.Function, b *ir.Block) {
			panic(fmt.Sprintf("transform: %s skipped a block of @%s its trigger fires at\n%s", pass, f.Name(), f))
		}
	}
	os.Exit(m.Run())
}
