package core

import (
	"runtime"
	"testing"

	"repro/internal/ir"
	"repro/internal/synth"
)

// BenchmarkFreezeThaw: what a merge family pays to keep an original as a
// record and to get it back. One op is one function of the SPEC2006
// profiles, visited in module order: ir.Freeze, then Thaw, then
// ir.Release of the thawed body into the pools the next thaw draws from
// — a record's whole life in a family that flattens once. Reported per
// instruction (ns/instr, B/instr, allocs/instr), with the records' own
// footprint (record-B/instr, ir.Frozen.Bytes).
func BenchmarkFreezeThaw(b *testing.B) {
	var funcs []*ir.Function
	for _, prof := range synth.SPEC2006() {
		funcs = append(funcs, synth.Generate(prof).Defined()...)
	}
	instrs, kept := 0, 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := range b.N {
		f := funcs[i%len(funcs)]
		z := ir.Freeze(f)
		ir.Release(z.Thaw())
		instrs += f.NumInstrs()
		kept += z.Bytes()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	n := float64(instrs)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/instr")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/n, "B/instr")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/instr")
	b.ReportMetric(float64(kept)/n, "record-B/instr")
}
