package transform

import (
	"flag"
	"fmt"
	"os"
	"testing"

	"repro/internal/ir"
)

// TestMain holds every clean-up pass of every test in the package to its
// due filter: a block a pass skips must be one its trigger is quiet at.
// Benchmark runs go without, since the check pays for every trigger the
// filter saves.
func TestMain(m *testing.M) {
	flag.Parse()
	if flag.Lookup("test.bench").Value.String() == "" {
		SkipCheck = failSkip
	}
	os.Exit(m.Run())
}

// failSkip is the package's SkipCheck: a skipped block whose trigger
// fires is a change some mutation did not stamp.
func failSkip(pass string, f *ir.Function, b *ir.Block) {
	where := "the function"
	if b != nil {
		where = "block %" + b.Name()
	}
	panic(fmt.Sprintf("transform: %s skipped %s of @%s as clean, but its trigger fires there\n%s", pass, where, f.Name(), f))
}
