package synth

import (
	"fmt"
	"os"
	"testing"

	"repro/internal/ir"
	"repro/internal/transform"
)

// TestMain holds every clean-up pass the generator runs — Mem2Reg's and
// Simplify's — to its due filter: a block a pass skips must be one its
// trigger is quiet at.
func TestMain(m *testing.M) {
	transform.SkipCheck = func(pass string, f *ir.Function, b *ir.Block) {
		panic(fmt.Sprintf("transform: %s skipped a block of @%s its trigger fires at\n%s", pass, f.Name(), f))
	}
	os.Exit(m.Run())
}
